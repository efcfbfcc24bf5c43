package sim

import (
	"context"
	"errors"
	"fmt"
	rand "math/rand/v2"
	"time"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Failure classes a simulated client reports to the server. The engine also
// keeps its own per-round records, so reports never need to parse errors.
var (
	// ErrDropout marks a client that vanished for the round.
	ErrDropout = errors.New("sim: client dropped out of round")
	// ErrDeadline marks a straggler whose simulated delay exceeded the
	// round deadline.
	ErrDeadline = errors.New("sim: client missed the round deadline")
)

// roundOutcome is what happened to one client in one round, written by the
// client's own HandleRound and read by the engine after the run completes
// (Server.Run's worker barrier orders the accesses).
type roundOutcome struct {
	dropped   bool
	late      bool
	delayMS   float64
	completed bool
	originals []*imaging.Image // pre-defense batch, recorded on attack rounds
}

// simClient wraps a LocalClient with the scenario's reliability model:
// per-round dropout, straggler delays against a virtual deadline, and
// original-batch recording on attack rounds (for post-hoc PSNR scoring).
//
// Reliability draws come from a PCG stream keyed by (seed, client index,
// round) — not from the shared training RNG and not from wall clock — so a
// population's fate is identical for every worker count and every execution
// order.
type simClient struct {
	inner  *fl.LocalClient
	index  int
	seed   uint64
	record *batchRecorder

	dropout      float64
	straggler    bool
	baseMS       float64
	meanMS       float64
	deadlineMS   float64
	realTime     bool
	attackActive func(round int) bool

	outcomes map[int]*roundOutcome
}

var (
	_ fl.Client      = (*simClient)(nil)
	_ fl.SizedClient = (*simClient)(nil)
)

// ID returns the wrapped client's identifier.
func (c *simClient) ID() string { return c.inner.ID() }

// NumSamples reports the shard size for size-weighted sampling.
func (c *simClient) NumSamples() int { return c.inner.NumSamples() }

// HandleRound applies the reliability model, then delegates to the wrapped
// client. Dropped and late rounds return typed errors without training.
func (c *simClient) HandleRound(ctx context.Context, req fl.RoundRequest) (fl.Update, error) {
	out := c.draw(req.Round)
	c.outcomes[req.Round] = out
	if out.dropped {
		obsDropouts.Inc()
		return fl.Update{}, fmt.Errorf("%w (client %s, round %d)", ErrDropout, c.ID(), req.Round)
	}
	if out.delayMS > 0 {
		// Virtual-clock value: deterministic by construction, so recording it
		// cannot perturb the run it describes.
		obsStragglerWait.Observe(out.delayMS)
	}
	if c.deadlineMS > 0 && out.delayMS > c.deadlineMS {
		out.late = true
		obsLate.Inc()
		return fl.Update{}, fmt.Errorf("%w (client %s, round %d: %.0f ms > %.0f ms)",
			ErrDeadline, c.ID(), req.Round, out.delayMS, c.deadlineMS)
	}
	if c.realTime && out.delayMS > 0 {
		select {
		case <-ctx.Done():
			return fl.Update{}, ctx.Err()
		case <-time.After(time.Duration(out.delayMS * float64(time.Millisecond))):
		}
	}
	c.record.arm(c.attackActive != nil && c.attackActive(req.Round))
	u, err := c.inner.HandleRound(ctx, req)
	if err == nil {
		out.completed = true
		out.originals = c.record.take()
	}
	return u, err
}

// draw derives this round's reliability state deterministically.
func (c *simClient) draw(round int) *roundOutcome {
	rng := rand.New(rand.NewPCG(
		c.seed^0x51D0_C1EA_7E55_0000+uint64(c.index)*0x9e3779b97f4a7c15,
		uint64(round)*0xbf58476d1ce4e5b9+1,
	))
	out := &roundOutcome{delayMS: c.baseMS}
	if c.dropout > 0 && rng.Float64() < c.dropout {
		out.dropped = true
		out.delayMS = 0
		return out
	}
	if c.straggler && c.meanMS > 0 {
		out.delayMS += rng.ExpFloat64() * c.meanMS
	}
	return out
}

// waitedMS is what the server's virtual clock charges for this client: a
// dropout is known immediately, a straggler past the deadline costs the full
// deadline, everyone else costs their delay.
func (o *roundOutcome) waitedMS(deadlineMS float64) float64 {
	switch {
	case o.dropped:
		return 0
	case o.late:
		return deadlineMS
	default:
		return o.delayMS
	}
}

// batchRecorder is every sim client's Defense: when armed it clones the raw
// (pre-defense) batch for later PSNR ground truth, then hands the batch to
// the real defense (if any); the gradient stage delegates. Unarmed it adds
// one branch per batch — cheap enough to leave in place on every client.
type batchRecorder struct {
	inner fl.Defense
	armed bool
	batch *data.Batch
}

var _ fl.Defense = (*batchRecorder)(nil)

// Name labels the wrapped defense (or "none").
func (r *batchRecorder) Name() string {
	if r.inner != nil {
		return r.inner.Name()
	}
	return "none"
}

// ApplyBatch records the first raw batch of an armed round, then delegates.
//
//oasis:allow-walltime measures real defense latency for the obs histogram; never feeds results
func (r *batchRecorder) ApplyBatch(b *data.Batch) *data.Batch {
	if r.armed && r.batch == nil {
		r.batch = b.Clone()
	}
	if r.inner == nil {
		return b
	}
	if !obs.Enabled() {
		return r.inner.ApplyBatch(b)
	}
	obsDefenseApply.Inc()
	start := time.Now()
	out := r.inner.ApplyBatch(b)
	obsDefenseApplyMS.Observe(float64(time.Since(start).Microseconds()) / 1000)
	return out
}

// ApplyGrads runs the wrapped defense's gradient stage.
func (r *batchRecorder) ApplyGrads(grads []*tensor.Tensor) {
	if r.inner != nil {
		r.inner.ApplyGrads(grads)
	}
}

// arm resets the recorder for a new round.
func (r *batchRecorder) arm(on bool) {
	r.armed, r.batch = on, nil
}

// take returns the recorded originals (nil when unarmed) and clears them.
func (r *batchRecorder) take() []*imaging.Image {
	if r.batch == nil {
		return nil
	}
	ims := r.batch.Images
	r.batch = nil
	return ims
}
