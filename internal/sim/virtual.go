package sim

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"runtime"
	"sort"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/nn"
)

// membership is a population subset of [0, n) stored as a bitset: one bit
// per client plus the member count. A million-client population retains
// 122 KB per set whatever the member count, a lookup is one word test, and
// drawing the set needs no sort.
type membership struct {
	bits  []uint64
	count int
}

// Contains reports whether client i belongs to the set; it is false for
// every i outside [0, n).
func (m membership) Contains(i int) bool {
	w := uint(i) >> 6
	return w < uint(len(m.bits)) && m.bits[w]&(1<<(uint(i)&63)) != 0
}

// Count returns the set's cardinality.
func (m membership) Count() int { return m.count }

// drawMembership draws a uniformly random count-member subset of [0, n) from
// the keyed stream (seed, salt) by Floyd's algorithm, straight into the
// bitset: for each j in [n−count, n) it draws t = rng.IntN(j+1) and marks t,
// or j when t is already a member. count is clamped to n; the draw costs
// count rng calls and no scratch beyond the bitset.
func drawMembership(seed, salt uint64, n, count int) membership {
	count = min(count, n)
	if count <= 0 {
		return membership{}
	}
	rng := nn.RandSource(seed, salt)
	m := membership{bits: make([]uint64, (n+63)/64), count: count}
	for j := n - count; j < n; j++ {
		t := rng.IntN(j + 1)
		if m.Contains(t) {
			t = j
		}
		m.bits[t>>6] |= 1 << (uint(t) & 63)
	}
	return m
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
// population exists only as keyed-stream descriptors (lazy partition,
// membership bitsets), and a real simClient exists only while a cohort leases
// it. When Release ends a round, each cohort client shrinks to a departed
// record of its cross-round state — training rng and defense pipeline — and
// a later Lease rebuilds it from its descriptor and that
// record, so a resampled client resumes exactly where an eagerly
// materialized one would. The heavy per-round buffers (decoded models,
// upload gradients) are leased from the tensor arena and recycled inside the
// round, so memory is one small record per client ever sampled plus
// O(workers × model), never O(population).
type virtualPopulation struct {
	sc      Scenario
	trainDS data.Dataset
	parts   *data.LazyPartition

	defended   membership
	stragglers membership
	// attackActive is read by clients on every round; the engine sets it
	// (before the first round) only when the scenario schedules an attack.
	attackActive func(round int) bool

	// departed holds the record of every client released so far, keyed by
	// index. All access is on the server goroutine (Lease/Release run
	// there).
	departed map[int]departed
	// cohort is the last released round's cohort in ascending index order:
	// the only clients with an outcome for that round.
	cohort []*simClient
}

// departed is a released client's cross-round state: everything a rebuilt
// client must resume, and nothing the descriptor can recompute. The zero
// value is a client never leased.
type departed struct {
	rng     *rand.Rand // training stream, at the position the client left it
	defense fl.Defense // the client's own pipeline; nil when undefended
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
		departed:   make(map[int]departed),
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

// Lease instantiates the round's cohort in index-argument order, each client
// from its descriptor and its departed record (the zero record on a first
// lease), so its cross-round state continues.
func (vp *virtualPopulation) Lease(round int, indices []int) ([]fl.Client, error) {
	cohort := make([]fl.Client, len(indices))
	for j, i := range indices {
		c, err := vp.instantiate(vp.describe(i), vp.departed[i])
		if err != nil {
			return nil, err
		}
		cohort[j] = c
	}
	return cohort, nil
}

// Release ends the cohort's round: each client's cross-round state becomes
// its departed record, and the round's heavy buffers were already recycled
// by the client and server release paths. The cohort itself is kept, in
// ascending index order, until the next Release, because the engine's round
// collection (AfterRound) reads its outcomes and recorded batches after this
// call.
func (vp *virtualPopulation) Release(_ int, cohort []fl.Client) {
	clear(vp.cohort) // a smaller cohort must not pin the tail of the last one
	vp.cohort = vp.cohort[:0]
	for _, fc := range cohort {
		c := fc.(*simClient)
		vp.cohort = append(vp.cohort, c)
		vp.departed[c.index] = departed{rng: c.inner.Rng, defense: c.record.inner}
	}
	sort.Slice(vp.cohort, func(a, b int) bool { return vp.cohort[a].index < vp.cohort[b].index })
}

// instantiate builds the real simClient for one descriptor. A first lease
// (zero record) draws the client's training stream and defense pipeline from
// the same keyed streams the eager population loop used, so a client's
// behavior is independent of when (or whether) it is materialized; a
// re-lease adopts the record's rng and pipeline as they stand.
func (vp *virtualPopulation) instantiate(d virtualClient, rec departed) (*simClient, error) {
	sc := &vp.sc
	if rec.rng == nil {
		rec.rng = nn.RandSource(sc.Seed+1, uint64(d.index))
		if d.defended {
			// Each defended client gets its own pipeline instance over a
			// per-client seeded stream: stochastic stages (DPSGD, ATS) are
			// stateful and must not be shared across concurrent clients.
			pl, err := defense.NewPipeline(sc.Defense.Kind,
				defense.Config{Rng: nn.RandSource(sc.Seed+2, uint64(d.index))})
			if err != nil {
				return nil, err
			}
			rec.defense = pl
		}
	}
	shard := data.NewSubset(vp.trainDS, vp.parts.Shard(d.index), fmt.Sprintf("%s-shard-%d", sc.Name, d.index))
	lc := fl.NewLocalClient(clientName(d.index), shard, sc.BatchSize, rec.rng)
	lc.LocalSteps = sc.LocalSteps
	recorder := &batchRecorder{inner: rec.defense}
	lc.Defense = recorder
	return &simClient{
		inner:     lc,
		pop:       vp,
		index:     d.index,
		straggler: d.straggler,
		record:    recorder,
	}, nil
}

// clientName is client i's ID.
func clientName(i int) string { return fmt.Sprintf("client-%04d", i) }

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
