package fl

import (
	"context"
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// RoundRequest is the server→client message for one FL round.
type RoundRequest struct {
	Round int
	Model ModelSpec
}

// Update is the client→server payload: the local gradients of every model
// parameter in layer order, plus bookkeeping.
type Update struct {
	ClientID  string
	Round     int
	Grads     []*tensor.Tensor
	Loss      float64
	BatchSize int
}

// Defense is the two-stage client defense contract. Each of the paper's
// countermeasures acts at one point of a client's round: OASIS (and ATS)
// rewrites the batch D before gradients are computed (Eq. 7), while the §V
// baselines (DPSGD, pruning) transform the gradients before upload. A
// defense implements both stages and leaves the one it does not use as the
// identity. internal/defense registers the concrete families and chains
// them into pipelines.
//
// Stateful defenses (DPSGD and ATS draw from their own *rand.Rand) must not
// be shared across clients when the server runs with Workers > 1; give each
// client its own instance. An OASIS defense over a deterministic policy is
// pure and shareable.
type Defense interface {
	// Name returns the label shown in reports, e.g. "oasis(MR)" or
	// "dpsgd(σ=0.1)".
	Name() string
	// ApplyBatch rewrites the local batch before gradient computation.
	// Batch-neutral defenses return b unchanged. Implementations must not
	// mutate b.
	ApplyBatch(b *data.Batch) *data.Batch
	// ApplyGrads transforms the uploaded gradients in place.
	// Gradient-neutral defenses are a no-op.
	ApplyGrads(grads []*tensor.Tensor)
}

// Client executes local training rounds.
//
// Concurrency contract: the server never calls HandleRound concurrently on
// the SAME Client — each client handles at most one in-flight round request.
// But when ServerConfig.Workers > 1 DIFFERENT clients run concurrently, so
// any state shared between client instances (a common *rand.Rand, a stateful
// Defense such as DPSGD, a shared network connection) must either be
// synchronized or duplicated per client. State owned exclusively by one
// client needs no locking. An OASIS Defense (internal/core) is pure and
// safe to share; the stochastic stages of internal/defense (DPSGD, ATS) draw
// from their own *rand.Rand and must be per-client. Datasets are read-only
// and safe to share.
//
// A returned Update's gradient tensors pass to the server, which releases
// them to the tensor arena once the round has folded them: HandleRound must
// keep no reference to them.
type Client interface {
	ID() string
	HandleRound(ctx context.Context, req RoundRequest) (Update, error)
}

// LocalClient is the standard client: it owns a data shard, samples one
// batch per round, optionally runs it and the resulting gradients through a
// Defense, and returns the gradients an honest participant would upload. The
// defense's batch stage runs on every local step's batch and its gradient
// stage once, on the upload.
//
// Setting LocalSteps > 1 switches the client to FedAvg-style local training:
// it runs that many SGD steps (learning rate LocalLR, fresh defended batch
// per step) and uploads the pseudo-gradient (w₀ − w_k)/LocalLR, which the
// server aggregates exactly like a plain gradient. The reconstruction
// attacks still apply — the first local step's gradient dominates the
// malicious layer's pseudo-gradient — so OASIS matters in this mode too.
//
// A LocalClient satisfies the Client concurrency contract as long as Rng and
// a stateful Defense (DPSGD, ATS) are not shared with other clients: Shard
// is only read, and an OASIS defense is pure.
type LocalClient struct {
	Name      string
	Shard     data.Dataset
	BatchSize int
	Defense   Defense
	Rng       *rand.Rand

	LocalSteps int     // ≤ 1 means single-gradient FedSGD (the paper's setting)
	LocalLR    float64 // learning rate for local steps; 0 means 0.01
}

var _ Client = (*LocalClient)(nil)

// NewLocalClient constructs a client over a data shard.
func NewLocalClient(name string, shard data.Dataset, batchSize int, rng *rand.Rand) *LocalClient {
	return &LocalClient{
		Name:      name,
		Shard:     shard,
		BatchSize: batchSize,
		Rng:       rng,
	}
}

// ID returns the client identifier.
func (c *LocalClient) ID() string { return c.Name }

// NumSamples reports the local shard size (SizedClient, for size-weighted
// client sampling).
func (c *LocalClient) NumSamples() int { return c.Shard.Len() }

// HandleRound materializes the dispatched model, computes gradients (or a
// FedAvg pseudo-gradient) on fresh local batches and returns the update.
//
// The decoded model's fully-connected layers adopt the spec's weight tensors
// (DecodeModel), which every client of the round shares, so the client never
// writes them: a single-step client only reads its weights, and a multi-step
// client keeps them as w₀ and trains on arena copies. A model whose shapes do
// not fit the client's batch is an error naming the client, not a panic.
//
// The update's gradient tensors belong to the caller. With LocalSteps ≤ 1
// they are the decoded model's own arena-backed gradient buffers, uploaded
// without a copy; with more steps they are the pseudo-gradients formed from
// w₀ and the trained copies. Either way the client keeps no reference, and
// the server returns them to the tensor arena once the Observer and the
// Aggregator have seen them.
func (c *LocalClient) HandleRound(ctx context.Context, req RoundRequest) (Update, error) {
	if err := ctx.Err(); err != nil {
		return Update{}, fmt.Errorf("fl: client %s round %d: %w", c.Name, req.Round, err)
	}
	net, err := DecodeModel(req.Model)
	if err != nil {
		return Update{}, fmt.Errorf("fl: client %s: %w", c.Name, err)
	}
	steps := c.LocalSteps
	if steps < 1 {
		steps = 1
	}
	params := net.Params()
	var initial []*tensor.Tensor
	lr := c.LocalLR
	if steps > 1 {
		if lr == 0 {
			lr = 0.01
		}
		// The decoded weights are the shared spec's own: keep them as w₀
		// and train on arena copies.
		initial = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			initial[i] = p.W
			p.W = p.W.ClonePooled()
		}
	}

	var grads []*tensor.Tensor
	lossSum := 0.0
	lastBatch := 0
	for step := 0; step < steps; step++ {
		if step > 0 {
			// A freshly decoded model's gradients need no clearing (a
			// Linear's first Backward stores its weight gradient), so only
			// later steps clear the previous step's accumulation.
			net.ZeroGrad()
		}
		loss, batchSize, err := c.localStep(net, req.Model.InputKind)
		if err != nil {
			return Update{}, err
		}
		lossSum += loss
		lastBatch = batchSize
		if steps > 1 {
			// Apply the local SGD step; the pseudo-gradient is formed
			// from the cumulative weight displacement below.
			for _, p := range params {
				p.W.AddScaledInPlace(-lr, p.G)
			}
		}
	}
	if steps > 1 {
		grads = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			grads[i] = initial[i].Sub(p.W).ScaleInPlace(1 / lr)
			// The trained copies and the gradients are round-local
			// scratch; hand them back to the tensor arena.
			p.W.Release()
			p.G.Release()
		}
	} else {
		// A single-step client uploads the gradient buffers themselves.
		for _, p := range params {
			grads = append(grads, p.G)
		}
	}
	if c.Defense != nil {
		c.Defense.ApplyGrads(grads)
	}
	return Update{
		ClientID:  c.Name,
		Round:     req.Round,
		Grads:     grads,
		Loss:      lossSum / float64(steps),
		BatchSize: lastBatch,
	}, nil
}

// localStep draws one defended batch and runs forward/backward, adding the
// batch's gradients to the network parameters' G.
func (c *LocalClient) localStep(net *nn.Sequential, kind string) (loss float64, batchSize int, err error) {
	batch, err := data.RandomBatch(c.Shard, c.Rng, min(c.BatchSize, c.Shard.Len()))
	if err != nil {
		return 0, 0, fmt.Errorf("fl: client %s: %w", c.Name, err)
	}
	if c.Defense != nil {
		batch = c.Defense.ApplyBatch(batch)
	}
	x, err := batchInput(batch, kind)
	if err != nil {
		return 0, 0, fmt.Errorf("fl: client %s: %w", c.Name, err)
	}
	loss, err = runModel(net, x, batch.Labels)
	x.Release() // the layers keep their own copies of what Backward reads
	if err != nil {
		return 0, 0, fmt.Errorf("fl: client %s: %w", c.Name, err)
	}
	return loss, batch.Size(), nil
}

// runModel runs the dispatched network's forward pass, loss and backward
// pass on one batch. The network comes from a server the client does not
// trust, and DecodeModel cannot know the batch it will see: a layer whose
// width does not match its input panics in nn's shape checks, which run on
// this goroutine, so the panic becomes an error instead of killing the
// client (or, in process, the server).
func runModel(net *nn.Sequential, x *tensor.Tensor, labels []int) (loss float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dispatched model does not run on the local batch: %v", r)
		}
	}()
	return net.Backprop(x, labels), nil
}
