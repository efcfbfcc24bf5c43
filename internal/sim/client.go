package sim

import (
	"context"
	"errors"
	"fmt"
	rand "math/rand/v2"
	"time"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/fl"
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

// roundOutcome is what happened to one client in its leased round, written
// by the client's own HandleRound and read by the engine's round collection
// (Server.Run's worker barrier orders the accesses).
type roundOutcome struct {
	dropped   bool
	late      bool
	delayMS   float64
	completed bool
}

// simClient wraps a LocalClient with the scenario's reliability model:
// per-round dropout, straggler delays against a virtual deadline, and
// raw-batch recording on attack rounds (for the round's PSNR scoring).
// One simClient lives for one lease; its cross-round state comes from, and
// returns to, the population's departed record.
//
// Reliability draws come from a PCG stream keyed by (seed, client index,
// round) — not from the shared training RNG and not from wall clock — so a
// population's fate is identical for every worker count and every execution
// order.
type simClient struct {
	inner     *fl.LocalClient
	pop       *virtualPopulation
	index     int
	straggler bool
	record    *batchRecorder

	// outcome is the leased round's outcome; nil until HandleRound runs.
	outcome *roundOutcome
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
	sc := &c.pop.sc
	out := c.draw(req.Round)
	c.outcome = out
	if out.dropped {
		obsDropouts.Inc()
		return fl.Update{}, fmt.Errorf("%w (client %s, round %d)", ErrDropout, c.ID(), req.Round)
	}
	if out.delayMS > 0 {
		// Virtual-clock value: deterministic by construction, so recording it
		// cannot perturb the run it describes.
		obsStragglerWait.Observe(out.delayMS)
	}
	if sc.DeadlineMS > 0 && out.delayMS > sc.DeadlineMS {
		out.late = true
		obsLate.Inc()
		return fl.Update{}, fmt.Errorf("%w (client %s, round %d: %.0f ms > %.0f ms)",
			ErrDeadline, c.ID(), req.Round, out.delayMS, sc.DeadlineMS)
	}
	active := c.pop.attackActive
	c.record.arm(active != nil && active(req.Round))
	u, err := c.inner.HandleRound(ctx, req)
	out.completed = err == nil
	return u, err
}

// draw derives this round's reliability state deterministically.
func (c *simClient) draw(round int) *roundOutcome {
	sc := &c.pop.sc
	rng := rand.New(rand.NewPCG(
		sc.Seed^0x51D0_C1EA_7E55_0000+uint64(c.index)*0x9e3779b97f4a7c15,
		uint64(round)*0xbf58476d1ce4e5b9+1,
	))
	out := &roundOutcome{delayMS: sc.Straggler.BaseDelayMS}
	if sc.Dropout > 0 && rng.Float64() < sc.Dropout {
		out.dropped = true
		out.delayMS = 0
		return out
	}
	if c.straggler && sc.Straggler.MeanDelayMS > 0 {
		out.delayMS += rng.ExpFloat64() * sc.Straggler.MeanDelayMS
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

// batchRecorder is every sim client's Defense: when armed it keeps the raw
// (pre-defense) batch as the round's PSNR ground truth, then hands the batch
// to the real defense (if any); the gradient stage delegates. Unarmed it
// adds one branch per batch — cheap enough to leave in place on every
// client. The batch is kept, not copied: defenses must not mutate their
// input and dataset images are read-only, and the engine scores and drops
// it in the round's AfterRound.
type batchRecorder struct {
	inner fl.Defense
	armed bool
	// batch is written by the client's worker goroutine and read by the
	// server goroutine after the round's results are merged.
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
		r.batch = b
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
