package fl

import (
	"context"
	"fmt"
	"math"
	rand "math/rand/v2"
	"runtime"
	"sync"
	"time"

	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/tensor"
)

// ModelModifier is the dishonest-server hook: it may rewrite the dispatched
// model arbitrarily — changing or adding parameters and layers — before it
// reaches the clients (paper §III-A threat model). Honest servers leave it
// nil.
//
// Modify is called at most once per round, always from the server's own
// goroutine, never concurrently. The returned ModelSpec is shared read-only
// by every worker dispatching to clients, so implementations must not retain
// and mutate it after returning.
type ModelModifier interface {
	Modify(round int, spec ModelSpec) (ModelSpec, error)
	Name() string
}

// UpdateObserver taps every raw client update before aggregation; the
// reconstruction attacks live behind this interface.
//
// The round engine serializes all Observe calls on the server goroutine, in
// deterministic client-selection order, regardless of ServerConfig.Workers —
// an Observer therefore does not need internal locking, and its view of a
// run is reproducible under a fixed seed.
//
// Observe must not keep u.Grads past its return: once the Observer, and the
// Aggregator when the round's aggregate can be applied, have seen an update,
// the server releases its gradient tensors to the tensor arena, and a kept
// tensor is left empty. Copy what must outlive the call.
type UpdateObserver interface {
	Observe(round int, u Update)
}

// Roster is the server's view of an FL population: each round the server
// samples client *indices* over [0, NumClients()) and only the sampled
// cohort is leased. MemoryRoster and TCPServer hold every client resident;
// a simulated cross-device population (millions of enrolled devices, a few
// hundred sampled per round, the regime the OASIS paper assumes)
// instantiates only the cohort, so it never costs O(population) memory.
//
// Lifecycle per round, all on the server goroutine:
//
//	n       := NumClients()
//	indices := sampler.SampleIndices(round, n, m, NumSamples, rng)
//	cohort  := Lease(round, indices)     // instantiate, in index order
//	...dispatch / observe / aggregate / apply step...
//	Release(round, cohort)               // after the step; buffers may be recycled
//
// Indices refer to the population as NumClients saw it: a roster whose
// membership changes concurrently (clients registering mid-round) must keep
// NumSamples and Lease consistent with the size it last returned. Lease
// must return one Client per index, in the given order — the server
// preserves that order for dispatch, observation, and aggregation, which is
// what keeps a run reproducible under a fixed seed. Release is the bookend:
// implementations return pooled buffers there, or keep clients resident
// when cross-round state (training rng position, stateful defenses) must
// survive — a later Lease of the same index must observe the state a
// resident client would have.
type Roster interface {
	// NumClients returns the population size.
	NumClients() int
	// NumSamples reports client i's local dataset size for size-weighted
	// sampling (0 means "weigh as one sample"). Must not instantiate the
	// client.
	NumSamples(i int) int
	// Lease instantiates the cohort for the given round, one Client per
	// index, in index-argument order.
	Lease(round int, indices []int) ([]Client, error)
	// Release ends the cohort's round. The server calls it exactly once per
	// successful Lease, after the aggregated step has been applied.
	Release(round int, clients []Client)
}

// ServerConfig parametrizes the FL run.
type ServerConfig struct {
	Rounds          int
	ClientsPerRound int     // M in the paper; 0 means all clients
	LearningRate    float64 // η of Eq. 1
	Seed            uint64
	// TolerateFailures keeps a round going when individual clients error
	// (dropouts, stragglers, dropped connections): their updates are
	// skipped and the remaining ones are aggregated. A round in which every
	// selected client errors is recorded with no participants, and the
	// global model is untouched by it.
	TolerateFailures bool
	// Workers bounds how many clients train concurrently inside one round.
	// 0 means runtime.NumCPU(); 1 reproduces the sequential engine. The
	// resulting History is bit-identical for every Workers value under the
	// same seed: only wall-clock time changes. Rosters whose clients share
	// mutable state (a common *rand.Rand, a stateful Defense such as DPSGD, a
	// randomized augmentation policy) must set Workers to 1 or synchronize
	// that state — see the Client concurrency contract.
	Workers int
}

// RoundStats records one round's aggregate outcome.
type RoundStats struct {
	Round       int
	MeanLoss    float64
	Clients     []string // clients whose updates were aggregated, in selection order
	Failed      []string // clients that errored (TolerateFailures mode), in selection order
	GradNorm    float64  // L2 norm of the aggregated gradient
	UpdateBytes int      // approximate payload size in float64 count
}

// History is the trace of a complete FL run.
type History struct {
	Rounds []RoundStats
}

// FinalLoss returns the last round's mean client loss (0 if no rounds ran).
func (h History) FinalLoss() float64 {
	if len(h.Rounds) == 0 {
		return 0
	}
	return h.Rounds[len(h.Rounds)-1].MeanLoss
}

// Server coordinates FL training per §II-A. Each round it samples M clients,
// dispatches the (possibly maliciously modified) model to them through a
// bounded worker pool, and folds their updates through the configured
// Aggregator in deterministic selection order.
type Server struct {
	Config   ServerConfig
	Model    *nn.Sequential
	Roster   Roster
	Modifier ModelModifier
	Observer UpdateObserver
	// Sampler picks each round's participants; nil means UniformSampler.
	Sampler ClientSampler
	// AfterRound, when set, is invoked on the server goroutine after each
	// round's step has been applied — a hook for per-round evaluation,
	// logging, or checkpointing. It sees the final RoundStats and may read
	// the Model (no round is in flight while it runs). A panicking hook is
	// recovered and surfaced as the run's error (the completed rounds stay
	// in the returned History) rather than tearing the server down.
	AfterRound func(round int, stats RoundStats)
	// Aggregator folds client updates into the applied gradient; nil means
	// FedAvgMean (the paper's Eq. 1). The server owns its lifecycle: Reset
	// at round start, Add per update, Finalize at round end — all from one
	// goroutine. A round whose first update does not fit the global model's
	// parameters (a swapped dispatch) cannot apply an aggregate, so it gets
	// only Reset; what Add would reject there, such as normclip's
	// non-finite update, does not abort it.
	Aggregator Aggregator

	rng *rand.Rand
}

// NewServer constructs a server around a global model and a client roster.
func NewServer(cfg ServerConfig, model *nn.Sequential, roster Roster) *Server {
	if cfg.LearningRate == 0 {
		cfg.LearningRate = 0.1
	}
	if cfg.Rounds == 0 {
		cfg.Rounds = 1
	}
	return &Server{
		Config: cfg,
		Model:  model,
		Roster: roster,
		rng:    nn.RandSource(cfg.Seed, 0x5eed),
	}
}

// Run executes the configured number of rounds: sample M clients, dispatch
// the (possibly maliciously modified) model concurrently, aggregate updates,
// and apply the step wᵗ⁺¹ = wᵗ − η·ḡ (Eq. 1 with ḡ from the Aggregator).
//
// A cancelled ctx ends the run before the next round, or aborts the round in
// flight unrecorded; Run then returns the rounds completed so far with an
// error wrapping ctx.Err().
func (s *Server) Run(ctx context.Context) (History, error) {
	var hist History
	for round := 0; round < s.Config.Rounds; round++ {
		if err := ctx.Err(); err != nil {
			return hist, fmt.Errorf("fl: round %d: %w", round, err)
		}
		stats, err := s.runRound(ctx, round)
		if err != nil {
			return hist, err
		}
		hist.Rounds = append(hist.Rounds, stats)
		if s.AfterRound != nil {
			if err := s.fireAfterRound(ctx, round, stats); err != nil {
				return hist, err
			}
		}
	}
	return hist, nil
}

// fireAfterRound invokes the AfterRound hook on the calling (server)
// goroutine, converting a hook panic into an error so a broken evaluation
// callback fails the run visibly instead of crashing or wedging the caller.
func (s *Server) fireAfterRound(ctx context.Context, round int, stats RoundStats) (err error) {
	_, sp := obs.Start(ctx, "fl.after_round", obs.Int("round", round))
	defer sp.End()
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("fl: round %d: AfterRound hook panicked: %v", round, r)
		}
	}()
	s.AfterRound(round, stats)
	return nil
}

// selectRound draws the round's participants by index and leases only the
// sampled cohort. All sampler rng operations run on the server goroutine;
// the fl.sample span times the draw and the lease together.
func (s *Server) selectRound(ctx context.Context, round int) ([]Client, error) {
	_, sp := obs.Start(ctx, "fl.sample", obs.Int("round", round))
	defer sp.End()
	sampler := s.Sampler
	if sampler == nil {
		sampler = UniformSampler{}
	}
	n := s.Roster.NumClients()
	if n == 0 {
		return nil, fmt.Errorf("fl: round %d: no clients connected", round)
	}
	m := s.Config.ClientsPerRound
	if m <= 0 || m > n {
		m = n
	}
	indices := sampler.SampleIndices(round, n, m, s.Roster.NumSamples, s.rng)
	if len(indices) == 0 {
		return nil, fmt.Errorf("fl: round %d: sampler %s selected no clients", round, sampler.Name())
	}
	selected, err := s.Roster.Lease(round, indices)
	if err != nil {
		return nil, fmt.Errorf("fl: round %d: leasing cohort: %w", round, err)
	}
	if len(selected) != len(indices) {
		return nil, fmt.Errorf("fl: round %d: roster leased %d clients for %d indices", round, len(selected), len(indices))
	}
	return selected, nil
}

// roundResult pairs one selected client's outcome with nothing else; the
// slice index carries the selection order.
type roundResult struct {
	update Update
	err    error
}

func (s *Server) runRound(ctx context.Context, round int) (RoundStats, error) {
	ctx, sp := obs.Start(ctx, "fl.round", obs.Int("round", round))
	defer sp.End()
	obsRounds.Inc()
	selected, err := s.selectRound(ctx, round)
	if err != nil {
		return RoundStats{}, err
	}
	// The cohort's release runs after Finalize and the applied step, so
	// leased state lives exactly as long as the round that sampled it.
	defer s.Roster.Release(round, selected)

	spec, err := EncodeModel(s.Model)
	if err != nil {
		return RoundStats{}, fmt.Errorf("fl: round %d: %w", round, err)
	}
	dispatched := spec
	if s.Modifier != nil {
		dispatched, err = s.Modifier.Modify(round, spec)
		if err != nil {
			return RoundStats{}, fmt.Errorf("fl: round %d: dishonest modifier: %w", round, err)
		}
	}

	// Merge runs on the server goroutine only, in selection order: observer
	// taps, failure accounting, and aggregation all see the same
	// deterministic sequence the sequential engine produced, so History is
	// bit-identical for any Workers value. Streaming the merge (folding
	// each result as soon as its selection-order prefix is complete) keeps
	// peak memory near O(model) for streaming aggregators instead of
	// buffering every selected client's gradients.
	agg := s.Aggregator
	if agg == nil {
		agg = NewFedAvgMean()
	}
	agg.Reset()
	stats := RoundStats{Round: round}
	lossSum := 0.0
	var mergeErr error
	// The first merged update decides whether the round's aggregate can be
	// applied: every aggregator returns tensors shaped like it, and the step
	// needs the global parameters' shapes. A dishonest server that swapped
	// the model is only pretending to train, so such a round aggregates
	// nothing; it still checks each later update against a copy of the
	// first one's shapes, as merged updates are released.
	params := s.Model.Params()
	applicable := false
	var refShapes [][]int
	// merge folds one selection-order result; returning false aborts the
	// round (dispatch stops feeding results and cancels outstanding work).
	merge := func(i int, res roundResult) bool {
		c := selected[i]
		if res.err != nil {
			obsClientFailed.Inc()
			if !s.Config.TolerateFailures {
				mergeErr = fmt.Errorf("fl: round %d client %s: %w", round, c.ID(), res.err)
				return false
			}
			stats.Failed = append(stats.Failed, c.ID())
			return true
		}
		update := res.update
		obsClientOK.Inc()
		if s.Observer != nil {
			s.Observer.Observe(round, update)
		}
		stats.Clients = append(stats.Clients, update.ClientID)
		lossSum += update.Loss
		for _, g := range update.Grads {
			stats.UpdateBytes += g.Len()
		}
		if len(stats.Clients) == 1 {
			applicable = gradsMatchParams(params, update.Grads)
			if !applicable {
				refShapes = shapesOf(update.Grads)
			}
		}
		var err error
		if applicable {
			err = agg.Add(update)
		} else {
			err = checkShapes(refShapes, update)
		}
		if err != nil {
			mergeErr = fmt.Errorf("fl: round %d: %w", round, err)
			return false
		}
		// Everything that reads the update has seen it; its gradient
		// buffers go back to the pool now instead of at GC's leisure, which
		// bounds a round's live gradient memory at O(workers × model).
		for _, g := range update.Grads {
			g.Release()
		}
		return true
	}

	s.dispatch(ctx, round, selected, dispatched, merge)
	if mergeErr != nil {
		return RoundStats{}, mergeErr
	}
	if err := ctx.Err(); err != nil {
		// Clients cancelled mid-round failed for the caller's reason, not
		// their own: the round is not recorded.
		return RoundStats{}, fmt.Errorf("fl: round %d: %w", round, err)
	}
	ok := len(stats.Clients)
	sp.SetAttr(obs.Int("ok", ok), obs.Int("failed", len(stats.Failed)))
	if ok == 0 {
		// Only a tolerant server gets here (a strict one aborted on the
		// first failure): record the wiped-out round, model untouched.
		obsEmptyRounds.Inc()
		return stats, nil
	}
	stats.MeanLoss = lossSum / float64(ok)
	if !applicable {
		return stats, nil
	}

	_, asp := obs.Start(ctx, "fl.aggregate", obs.Int("updates", ok))
	defer asp.End()
	aggregated, err := agg.Finalize()
	if err != nil {
		return RoundStats{}, fmt.Errorf("fl: round %d: %w", round, err)
	}
	normSq := 0.0
	for i, p := range params {
		g := aggregated[i]
		n := g.L2Norm()
		normSq += n * n
		p.W.AddScaledInPlace(-s.Config.LearningRate, g)
	}
	stats.GradNorm = math.Sqrt(normSq)
	// Finalize handed the aggregate to the server, and the step is applied.
	for _, g := range aggregated {
		g.Release()
	}
	return stats, nil
}

// indexedResult carries one worker's outcome back to the merging goroutine
// tagged with its selection-order position.
type indexedResult struct {
	i   int
	res roundResult
}

// dispatch runs HandleRound for every selected client through a bounded
// worker pool, calling merge(i, result) on the caller's goroutine in strict
// selection order. Results that complete out of order are parked until
// their selection-order prefix is complete, so a streaming Aggregator folds
// each update as early as determinism allows. When merge returns false the
// round is doomed: the sequential path stops dispatching, and the
// concurrent path cancels the clients still in flight (it still drains
// every worker, discarding their results, before returning) — either way
// the merged prefix, and hence the reported error, is identical.
func (s *Server) dispatch(ctx context.Context, round int, selected []Client, spec ModelSpec,
	merge func(int, roundResult) bool) {
	workers := s.Config.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > len(selected) {
		workers = len(selected)
	}
	obsRoundWorkers.Set(float64(workers))
	if workers <= 1 {
		for i, c := range selected {
			u, err := s.handleClient(ctx, round, c, spec)
			if !merge(i, roundResult{update: u, err: err}) {
				return
			}
		}
		return
	}
	roundCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int, len(selected))
	for i := range selected {
		jobs <- i
	}
	close(jobs)
	// Buffered to len(selected): workers never block on delivery, so the
	// merging goroutine below can drain at its own pace without deadlock.
	done := make(chan indexedResult, len(selected))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				// Skip jobs still queued after the round aborted; a result
				// is delivered regardless so the drain accounting holds.
				if err := roundCtx.Err(); err != nil {
					done <- indexedResult{i: i, res: roundResult{err: err}}
					continue
				}
				u, err := s.handleClient(roundCtx, round, selected[i], spec)
				done <- indexedResult{i: i, res: roundResult{update: u, err: err}}
			}
		}()
	}
	pending := make(map[int]roundResult, workers)
	next := 0
	aborted := false
	for received := 0; received < len(selected); received++ {
		ir := <-done
		if aborted {
			continue
		}
		pending[ir.i] = ir.res
		for res, ok := pending[next]; ok; res, ok = pending[next] {
			delete(pending, next)
			if !merge(next, res) {
				aborted = true
				cancel() // stop training clients for a doomed round
				break
			}
			next++
		}
	}
	wg.Wait()
}

// handleClient runs one selected client's round, wrapped in a span and a
// duration observation when observability is enabled (plain delegation — no
// timestamps, no allocation — when it is not). The span parents under the
// round span carried by ctx, so worker utilization is readable per round.
//
//oasis:allow-walltime measures real client latency for the obs histogram; never feeds results
func (s *Server) handleClient(ctx context.Context, round int, c Client, spec ModelSpec) (Update, error) {
	if !obs.Enabled() {
		return c.HandleRound(ctx, RoundRequest{Round: round, Model: spec})
	}
	_, sp := obs.Start(ctx, "fl.client", obs.String("client", c.ID()))
	t0 := time.Now()
	u, err := c.HandleRound(ctx, RoundRequest{Round: round, Model: spec})
	obsClientMS.Observe(float64(time.Since(t0)) / float64(time.Millisecond))
	sp.SetAttr(obs.Bool("ok", err == nil))
	sp.End()
	return u, err
}

// gradsMatchParams reports whether every gradient tensor matches the
// corresponding global parameter's shape.
func gradsMatchParams(params []*nn.Param, grads []*tensor.Tensor) bool {
	if len(params) != len(grads) {
		return false
	}
	for i, p := range params {
		if !p.W.SameShape(grads[i]) {
			return false
		}
	}
	return true
}
