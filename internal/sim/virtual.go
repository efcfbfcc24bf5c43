package sim

import (
	"fmt"
	"math"
	"runtime"
	"sort"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/nn"
)

// membership is a population subset stored as the sorted indices of its
// members. It replaces the historical []bool flag slices: a million-client
// population with 1% stragglers retains ~10k int32s instead of a megabyte of
// bools, and lookup stays O(log members).
type membership struct {
	idx []int32
}

// Contains reports whether client i belongs to the set.
func (m membership) Contains(i int) bool {
	p := sort.Search(len(m.idx), func(j int) bool { return m.idx[j] >= int32(i) })
	return p < len(m.idx) && m.idx[p] == int32(i)
}

// Count returns the set's cardinality.
func (m membership) Count() int { return len(m.idx) }

// drawMembership draws a count-member subset of [0, n) from the keyed stream
// (seed, salt), consuming exactly the rng operations the historical []bool
// draw performed — one Perm(n) — so membership is identical bit for bit. The
// permutation is O(n) transient scratch; only the sorted selection is kept.
func drawMembership(seed, salt uint64, n, count int) membership {
	if count <= 0 {
		return membership{}
	}
	rng := nn.RandSource(seed, salt)
	idx := make([]int32, count)
	for i, v := range rng.Perm(n)[:count] {
		idx[i] = int32(v)
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	return membership{idx: idx}
}

// populationFlags draws the defended and straggler membership sets, each on
// its own keyed stream so the two assignments never perturb one another: the
// straggler set is a function of (seed, straggler spec) alone, and the
// defended set of (seed, defense spec) alone. Any future population-level
// draw must follow the same pattern with a fresh salt.
func populationFlags(sc Scenario) (defended membership, nDefended int, stragglers membership) {
	if sc.Defense.Kind != "" {
		nDefended = int(math.Round(sc.Defense.Fraction * float64(sc.Clients)))
		defended = drawMembership(sc.Seed, saltDefense, sc.Clients, nDefended)
	}
	nStragglers := int(math.Round(sc.Straggler.Fraction * float64(sc.Clients)))
	stragglers = drawMembership(sc.Seed, saltStraggler, sc.Clients, nStragglers)
	return defended, nDefended, stragglers
}

// virtualClient is the lightweight descriptor the engine keeps for a client
// that has never been sampled: everything needed to instantiate it is a pure
// function of the scenario's keyed streams, so the "table" of a million
// virtual clients is this struct computed on demand, not an array.
type virtualClient struct {
	index     int
	defended  bool
	straggler bool
	shardLen  int
}

// virtualPopulation implements fl.Roster over a scenario: the full
// population exists only as keyed-stream descriptors (lazy partition, sorted
// membership sets), and real simClient state is instantiated per sampled
// cohort. Instantiated clients stay resident for the rest of the run —
// cross-round state (training-rng position, stateful defense pipelines like
// DPSGD) must advance exactly as an eagerly materialized client's would —
// but the heavy per-round buffers (decoded models, upload gradients) are
// leased from the tensor arena and recycled inside the round, so steady-state
// memory is O(instantiated descriptors + workers × model), not O(population).
type virtualPopulation struct {
	sc      Scenario
	trainDS data.Dataset
	parts   *data.LazyPartition

	defended   membership
	stragglers membership
	// attackActive is copied onto clients at instantiation; the engine sets
	// it (before the first round) only when the scenario schedules an attack.
	attackActive func(round int) bool

	// resident holds every client instantiated so far, keyed by index. All
	// access is on the server goroutine (Lease/Release run there).
	resident map[int]*simClient
	// cohort is the last released round's cohort in ascending index order:
	// the only clients with an outcome for that round.
	cohort []*simClient
}

var _ fl.Roster = (*virtualPopulation)(nil)

// newVirtualPopulation wraps the scenario's lazily partitioned population.
func newVirtualPopulation(sc Scenario, trainDS data.Dataset, parts *data.LazyPartition) *virtualPopulation {
	defended, _, stragglers := populationFlags(sc)
	return &virtualPopulation{
		sc:         sc,
		trainDS:    trainDS,
		parts:      parts,
		defended:   defended,
		stragglers: stragglers,
		resident:   make(map[int]*simClient),
	}
}

// NumClients returns the virtual population size.
func (vp *virtualPopulation) NumClients() int { return vp.sc.Clients }

// NumSamples reports client i's shard size straight from the lazy partition
// — no instantiation, O(1).
func (vp *virtualPopulation) NumSamples(i int) int { return vp.parts.ShardLen(i) }

// describe resolves the virtual-client descriptor for index i from the keyed
// streams.
func (vp *virtualPopulation) describe(i int) virtualClient {
	return virtualClient{
		index:     i,
		defended:  vp.defended.Contains(i),
		straggler: vp.stragglers.Contains(i),
		shardLen:  vp.parts.ShardLen(i),
	}
}

// Lease instantiates the round's cohort in index-argument order, reusing
// residents from earlier rounds so their cross-round state continues.
func (vp *virtualPopulation) Lease(round int, indices []int) ([]fl.Client, error) {
	cohort := make([]fl.Client, len(indices))
	for j, i := range indices {
		c, ok := vp.resident[i]
		if !ok {
			var err error
			c, err = vp.instantiate(vp.describe(i))
			if err != nil {
				return nil, err
			}
			vp.resident[i] = c
		}
		cohort[j] = c
	}
	return cohort, nil
}

// Release ends the cohort's round. Clients stay resident — their training
// rng and defense pipelines must resume where they stopped if resampled —
// and the round's heavy buffers were already recycled by the client and
// server release paths. What remains is recording the cohort, in ascending
// index order, for the engine's round collection.
func (vp *virtualPopulation) Release(_ int, cohort []fl.Client) {
	vp.cohort = vp.cohort[:0]
	for _, c := range cohort {
		vp.cohort = append(vp.cohort, c.(*simClient))
	}
	sort.Slice(vp.cohort, func(a, b int) bool { return vp.cohort[a].index < vp.cohort[b].index })
}

// instantiate builds the real simClient for one descriptor, drawing from the
// same keyed streams in the same way the eager population loop did, so a
// client's behavior is independent of when (or whether) it is materialized.
func (vp *virtualPopulation) instantiate(d virtualClient) (*simClient, error) {
	sc := vp.sc
	shard := data.NewSubset(vp.trainDS, vp.parts.Shard(d.index), fmt.Sprintf("%s-shard-%d", sc.Name, d.index))
	lc := fl.NewLocalClient(fmt.Sprintf("client-%04d", d.index), shard, sc.BatchSize, nn.RandSource(sc.Seed+1, uint64(d.index)))
	lc.LocalSteps = sc.LocalSteps
	rec := &batchRecorder{}
	if d.defended {
		// Each defended client gets its own pipeline instance over a
		// per-client seeded stream: stochastic stages (DPSGD, ATS) are
		// stateful and must not be shared across concurrent clients.
		pl, err := defense.NewPipeline(sc.Defense.Kind,
			defense.Config{Rng: nn.RandSource(sc.Seed+2, uint64(d.index))})
		if err != nil {
			return nil, err
		}
		rec.inner = defense.BatchAdapter{D: pl}
		lc.GradDef = defense.GradAdapter{D: pl}
	}
	lc.Pre = rec
	return &simClient{
		inner:        lc,
		index:        d.index,
		seed:         sc.Seed,
		record:       rec,
		dropout:      sc.Dropout,
		straggler:    d.straggler,
		baseMS:       sc.Straggler.BaseDelayMS,
		meanMS:       sc.Straggler.MeanDelayMS,
		deadlineMS:   sc.DeadlineMS,
		realTime:     sc.RealTime,
		attackActive: vp.attackActive,
		// No size hint: a cross-device client is sampled about once, so a
		// map sized for every round would dominate its retained bytes.
		outcomes: make(map[int]*roundOutcome),
	}, nil
}

// residents returns every instantiated client in ascending index order — the
// iteration order the eager engine's population slice gave scoreAttack.
// Clients never sampled have no outcomes and would contribute nothing, so
// iterating residents only is an exact optimization.
func (vp *virtualPopulation) residents() []*simClient {
	out := make([]*simClient, 0, len(vp.resident))
	for _, c := range vp.resident {
		out = append(out, c)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].index < out[b].index })
	return out
}

// roundStateBudgetBytes bounds the per-round transient state the cost-model
// worker cap is willing to keep in flight at once (decoded cohort models,
// upload gradients, parked results).
const roundStateBudgetBytes = 256 << 20

// costModelWorkers picks the round concurrency from a cost model instead of
// blindly using NumCPU: each in-flight client pins roughly four model-sized
// float64 buffer sets (decoded weights + gradients, upload clone, parked
// result), so the cap is the largest worker count whose in-flight state fits
// the budget — still clamped to NumCPU and the cohort. Reports are
// worker-count invariant, so the cap only shapes memory and wall clock,
// never results.
func costModelWorkers(cohort, modelParams int) int {
	perClient := modelParams * 8 * 4
	w := runtime.NumCPU()
	if perClient > 0 {
		if byBudget := roundStateBudgetBytes / perClient; byBudget < w {
			w = byBudget
		}
	}
	if cohort > 0 && w > cohort {
		w = cohort
	}
	return max(w, 1)
}
