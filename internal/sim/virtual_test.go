package sim

import (
	"runtime"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

// scaleScenario is a population two hundred times larger than the largest
// eager-engine preset, with a tiny cohort — the shape the virtual engine
// exists for. Cheap to run (two rounds of 64 clients) precisely because
// population size no longer implies materialization cost.
func scaleScenario() Scenario {
	return Scenario{
		Name: "virtual-scale", Seed: 11,
		Clients: 200_000, Rounds: 2, ClientsPerRound: 64, BatchSize: 2,
		Dataset:     DatasetSpec{Classes: 10, Channels: 1, Height: 8, Width: 8, Samples: 400_000},
		Partition:   "iid",
		Sampling:    "uniform",
		Dropout:     0.1,
		Straggler:   StragglerSpec{Fraction: 0.1, MeanDelayMS: 50, BaseDelayMS: 5},
		DeadlineMS:  100,
		Defense:     DefenseSpec{Kind: "oasis:MR", Fraction: 0.1},
		Model:       ArchSpec{Kind: "mlp", Hidden: 16},
		TestSamples: 16,
	}
}

// TestVirtualPopulationScale runs a 200k-client population end to end — a
// scenario the eager engine would spend gigabytes materializing — and checks
// the cohort accounting. It doubles as the in-tree stand-in for the CI
// memory-ceiling job's cross-device-1M run.
func TestVirtualPopulationScale(t *testing.T) {
	sc := scaleScenario()
	report, err := Run(sc, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rounds) != 2 {
		t.Fatalf("got %d rounds, want 2", len(report.Rounds))
	}
	for _, rr := range report.Rounds {
		if rr.Selected != 64 {
			t.Errorf("round %d selected %d clients, want 64", rr.Round, rr.Selected)
		}
		if rr.Completed+rr.Dropped+rr.Late+rr.Failed != rr.Selected {
			t.Errorf("round %d outcome classes sum to %d, want %d",
				rr.Round, rr.Completed+rr.Dropped+rr.Late+rr.Failed, rr.Selected)
		}
	}
	if report.Defended != 20_000 {
		t.Errorf("defended count %d, want 20000 (0.1 of 200k)", report.Defended)
	}
	if report.ShardSizes.Min != 2 || report.ShardSizes.Max != 2 {
		t.Errorf("iid 400k/200k shard sizes = %+v, want min=max=2", report.ShardSizes)
	}
}

// TestVirtualLeaseSemantics pins the lease contract directly: cohort order
// follows the index arguments, a resampled client is the same instance (its
// cross-round rng/defense state must continue), and descriptors resolve
// without instantiation.
func TestVirtualLeaseSemantics(t *testing.T) {
	sc := scaleScenario()
	sc.Clients = 1000
	sc.Dataset.Samples = 3000
	d := sc.Dataset
	ds := data.NewSynthCustom("lease", d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed)
	parts, err := data.IID{}.PartitionLazy(ds, sc.Clients, nn.RandSource(sc.Seed, saltPartition))
	if err != nil {
		t.Fatal(err)
	}
	vp := newVirtualPopulation(sc, ds, parts)
	if got := vp.NumClients(); got != 1000 {
		t.Fatalf("NumClients = %d, want 1000", got)
	}
	if got := vp.NumSamples(7); got != parts.ShardLen(7) {
		t.Fatalf("NumSamples(7) = %d, want %d", got, parts.ShardLen(7))
	}

	first, err := vp.Lease(0, []int{42, 7, 999})
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []string{"client-0042", "client-0007", "client-0999"}
	for j, c := range first {
		if c.ID() != wantIDs[j] {
			t.Errorf("cohort[%d] = %s, want %s", j, c.ID(), wantIDs[j])
		}
	}
	vp.Release(0, first)
	// Release records the cohort in ascending index order for round
	// collection.
	if len(vp.cohort) != 3 || vp.cohort[0].index != 7 || vp.cohort[1].index != 42 || vp.cohort[2].index != 999 {
		t.Errorf("released cohort not recorded in index order")
	}

	second, err := vp.Lease(1, []int{7, 13})
	if err != nil {
		t.Fatal(err)
	}
	if second[0] != first[1] {
		t.Error("re-leasing client 7 built a new instance; cross-round state would restart")
	}
	if len(vp.resident) != 4 {
		t.Errorf("%d residents after leasing 4 distinct clients, want 4", len(vp.resident))
	}

	res := vp.residents()
	for j := 1; j < len(res); j++ {
		if res[j-1].index >= res[j].index {
			t.Fatal("residents() not in ascending index order")
		}
	}

	// The descriptor table is a pure function of the keyed streams: asking
	// about clients never leased must not instantiate them.
	desc := vp.describe(500_000 % sc.Clients)
	if desc.shardLen != parts.ShardLen(desc.index) {
		t.Errorf("describe shardLen %d, want %d", desc.shardLen, parts.ShardLen(desc.index))
	}
	if len(vp.resident) != 4 {
		t.Error("describe() instantiated a client")
	}
}

// TestCostModelWorkers pins the worker-cap cost model's envelope: never more
// than NumCPU or the cohort, never zero, and shrinking as the model grows.
func TestCostModelWorkers(t *testing.T) {
	if got := costModelWorkers(4, 1000); got > 4 {
		t.Errorf("cap %d exceeds cohort 4", got)
	}
	if got := costModelWorkers(1024, 1000); got < 1 {
		t.Errorf("cap %d below 1", got)
	}
	// A model so large one in-flight client blows the budget still yields 1.
	if got := costModelWorkers(1024, 1<<30); got != 1 {
		t.Errorf("huge-model cap = %d, want 1", got)
	}
	small := costModelWorkers(1024, 1000)
	huge := costModelWorkers(1024, 50_000_000)
	if huge > small {
		t.Errorf("cap grew with model size: %d → %d", small, huge)
	}
}

// residentBytesPerClient leases 256 clients of a scenario with the given round
// count and returns the live heap they retain per client.
func residentBytesPerClient(t *testing.T, rounds int) float64 {
	t.Helper()
	sc := scaleScenario()
	sc.Clients, sc.Dataset.Samples, sc.Rounds = 1000, 3000, rounds
	d := sc.Dataset
	ds := data.NewSynthCustom("resident", d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed)
	parts, err := data.IID{}.PartitionLazy(ds, sc.Clients, nn.RandSource(sc.Seed, saltPartition))
	if err != nil {
		t.Fatal(err)
	}
	vp := newVirtualPopulation(sc, ds, parts)
	indices := make([]int, 256)
	for i := range indices {
		indices[i] = 3 * i
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := vp.Lease(0, indices); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(vp)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(indices))
}

// TestResidentClientBytesIndependentOfRounds pins that an instantiated
// client's retained state does not scale with the scenario's round count. A
// cross-device client is sampled about once, so state sized for every round
// made the resident heap grow superlinearly with run length.
func TestResidentClientBytesIndependentOfRounds(t *testing.T) {
	short := residentBytesPerClient(t, 2)
	long := residentBytesPerClient(t, 4096)
	t.Logf("retained bytes per resident client: %.0f at 2 rounds, %.0f at 4096", short, long)
	if long > 1.25*short+512 {
		t.Errorf("a resident client retains %.0f B at 4096 rounds vs %.0f B at 2: per-client state grows with Rounds", long, short)
	}
}
