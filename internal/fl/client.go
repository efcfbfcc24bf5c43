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

// BatchPreprocessor transforms a client's local batch before gradients are
// computed. The OASIS defense (internal/core.Defense) implements this.
// Implementations shared across clients must be goroutine-safe when the
// server runs with Workers > 1; core.Defense is pure — and therefore
// shareable — only when its augmentation policy is deterministic (the
// standard MR/mR/SH/flip policies are; augment.Randomized is not).
type BatchPreprocessor interface {
	Apply(b *data.Batch) (*data.Batch, error)
	Name() string
}

// GradientDefense post-processes gradients before upload (DPSGD, pruning).
// It mirrors internal/defense.GradientDefense without importing it, keeping
// the protocol layer free of defense policy. Stateful implementations
// (DPSGD mutates its RNG) must not be shared across clients when the server
// runs with Workers > 1; give each client its own instance.
type GradientDefense interface {
	Apply(grads []*tensor.Tensor)
	Name() string
}

// Client executes local training rounds.
//
// Concurrency contract: the server never calls HandleRound concurrently on
// the SAME Client — each client handles at most one in-flight round request.
// But when ServerConfig.Workers > 1 DIFFERENT clients run concurrently, so
// any state shared between client instances (a common *rand.Rand, a stateful
// GradientDefense such as DPSGD, a shared network connection) must either be
// synchronized or duplicated per client. State owned exclusively by one
// client needs no locking. An OASIS Defense (internal/core) over a
// deterministic policy is pure and safe to share; one built with
// core.RandomizedDefense draws from its policy's *rand.Rand on every Apply
// and must be per-client. Datasets are read-only and safe to share.
type Client interface {
	ID() string
	HandleRound(ctx context.Context, req RoundRequest) (Update, error)
}

// LocalClient is the standard client: it owns a data shard, samples one
// batch per round, optionally applies OASIS and/or a gradient defense, and
// returns the gradients an honest participant would upload.
//
// Setting LocalSteps > 1 switches the client to FedAvg-style local training:
// it runs that many SGD steps (learning rate LocalLR, fresh defended batch
// per step) and uploads the pseudo-gradient (w₀ − w_k)/LocalLR, which the
// server aggregates exactly like a plain gradient. The reconstruction
// attacks still apply — the first local step's gradient dominates the
// malicious layer's pseudo-gradient — so OASIS matters in this mode too.
//
// A LocalClient satisfies the Client concurrency contract as long as Rng,
// GradDef, and any randomized Pre policy are not shared with other clients:
// Shard is only read, and a deterministic-policy OASIS defense is pure.
type LocalClient struct {
	Name      string
	Shard     data.Dataset
	BatchSize int
	Pre       BatchPreprocessor
	GradDef   GradientDefense
	Loss      nn.Loss
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
		Loss:      nn.SoftmaxCrossEntropy{},
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
// w₀ and the trained copies. Either way the client keeps no reference, so a
// server with ReleaseUpdates set returns them to the tensor arena once the
// Aggregator has folded them.
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
	if c.GradDef != nil {
		c.GradDef.Apply(grads)
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
	if c.Pre != nil {
		batch, err = c.Pre.Apply(batch)
		if err != nil {
			return 0, 0, fmt.Errorf("fl: client %s defense: %w", c.Name, err)
		}
	}
	x, err := batchInput(batch, kind)
	if err != nil {
		return 0, 0, fmt.Errorf("fl: client %s: %w", c.Name, err)
	}
	loss, err = runModel(net, c.Loss, x, batch.Labels)
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
func runModel(net *nn.Sequential, lossFn nn.Loss, x *tensor.Tensor, labels []int) (loss float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dispatched model does not run on the local batch: %v", r)
		}
	}()
	logits := net.Forward(x, true)
	loss, g := lossFn.Compute(logits, labels)
	net.Backward(g)
	return loss, nil
}
