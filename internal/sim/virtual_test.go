package sim

import (
	"context"
	"math"
	"runtime"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/fl"
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

// testPopulation builds the virtual population of a scenario over an IID
// lazy partition, as run does.
func testPopulation(t *testing.T, sc Scenario) *virtualPopulation {
	t.Helper()
	d := sc.Dataset
	ds := data.NewSynthCustom(sc.Name, d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed)
	parts, err := data.IID{}.PartitionLazy(ds, sc.Clients, nn.RandSource(sc.Seed, saltPartition))
	if err != nil {
		t.Fatal(err)
	}
	return newVirtualPopulation(sc, ds, parts)
}

// TestVirtualLeaseSemantics pins the lease contract: cohort order follows
// the index arguments, Release records the cohort in index order, and
// descriptors resolve without instantiation. A released client keeps only a
// departed record, so a re-leased client is a new instance; what must hold
// instead is that it behaves exactly like one that was never released, which
// the subtests check for an undefended, an OASIS and a DP-SGD client.
func TestVirtualLeaseSemantics(t *testing.T) {
	sc := scaleScenario()
	sc.Clients = 1000
	sc.Dataset.Samples = 3000
	vp := testPopulation(t, sc)
	if got := vp.NumClients(); got != 1000 {
		t.Fatalf("NumClients = %d, want 1000", got)
	}
	if got := vp.NumSamples(7); got != vp.parts.ShardLen(7) {
		t.Fatalf("NumSamples(7) = %d, want %d", got, vp.parts.ShardLen(7))
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
	if len(vp.departed) != 3 {
		t.Errorf("%d departed records after releasing 3 clients, want 3", len(vp.departed))
	}

	// The descriptor table is a pure function of the keyed streams: asking
	// about clients never leased must not instantiate them.
	desc := vp.describe(500_000 % sc.Clients)
	if desc.shardLen != vp.parts.ShardLen(desc.index) {
		t.Errorf("describe shardLen %d, want %d", desc.shardLen, vp.parts.ShardLen(desc.index))
	}
	if len(vp.departed) != 3 {
		t.Error("describe() instantiated a client")
	}

	for _, kind := range []string{"", "oasis:MR", "dpsgd:1,0.1"} {
		name := kind
		if name == "" {
			name = "undefended"
		}
		t.Run(name, func(t *testing.T) { checkReleasedClientResumes(t, kind) })
	}
}

// checkReleasedClientResumes drives one client for three attack rounds
// twice: leased, released and re-leased through the population each round,
// and as one instance that is never released. Both must upload bit-identical
// gradients and record bit-identical raw batches every round, which holds only
// if the departed record carries the training rng and the defense pipeline
// where the client left them.
func checkReleasedClientResumes(t *testing.T, defenseKind string) {
	const client = 7
	sc := scaleScenario()
	sc.Clients, sc.Dataset.Samples = 1000, 20_000
	// Every round trains: no dropout, no deadline to miss.
	sc.Dropout, sc.Straggler, sc.DeadlineMS = 0, StragglerSpec{}, 0
	sc.Defense = DefenseSpec{Kind: defenseKind}
	if defenseKind != "" {
		sc.Defense.Fraction = 1
	}
	leased, kept := testPopulation(t, sc), testPopulation(t, sc)
	always := func(int) bool { return true }
	leased.attackActive, kept.attackActive = always, always
	if got := leased.describe(client).defended; got != (defenseKind != "") {
		t.Fatalf("client %d defended = %v under defense %q", client, got, defenseKind)
	}
	ref, err := kept.instantiate(kept.describe(client), departed{})
	if err != nil {
		t.Fatal(err)
	}
	model, err := buildModel(sc, leased.trainDS)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fl.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		req := fl.RoundRequest{Round: round, Model: spec}
		cohort, err := leased.Lease(round, []int{client, 3 + round})
		if err != nil {
			t.Fatal(err)
		}
		var got fl.Update
		lease := cohort[0].(*simClient)
		for j, c := range cohort {
			u, err := c.HandleRound(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			if j == 0 {
				got = u
			}
		}
		leased.Release(round, cohort)
		want, err := ref.HandleRound(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Grads) != len(want.Grads) {
			t.Fatalf("round %d: %d gradients, want %d", round, len(got.Grads), len(want.Grads))
		}
		for i := range want.Grads {
			if !bitsEqual(got.Grads[i].Data(), want.Grads[i].Data()) {
				t.Fatalf("round %d: re-leased client's gradient %d differs from the never-released client's", round, i)
			}
		}
		if lease.record.batch == nil || ref.record.batch == nil {
			t.Fatalf("round %d: an armed client recorded no batch", round)
		}
		gotIms, wantIms := lease.record.batch.Images, ref.record.batch.Images
		if len(wantIms) == 0 || len(gotIms) != len(wantIms) {
			t.Fatalf("round %d: %d recorded images, want %d (> 0)", round, len(gotIms), len(wantIms))
		}
		for i := range wantIms {
			if !bitsEqual(gotIms[i].Pix, wantIms[i].Pix) {
				t.Fatalf("round %d: recorded image %d differs from the never-released client's", round, i)
			}
		}
	}
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
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

// departedBytesPerClient leases 256 clients of a scenario with the given
// round count, runs one (attack-free) round on them, releases them and
// returns the live heap each one retains afterwards.
func departedBytesPerClient(t *testing.T, rounds int) float64 {
	t.Helper()
	sc := scaleScenario()
	sc.Clients, sc.Dataset.Samples, sc.Rounds = 1000, 3000, rounds
	vp := testPopulation(t, sc)
	model, err := buildModel(sc, vp.trainDS)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := fl.EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	indices := make([]int, 256)
	for i := range indices {
		indices[i] = 3 * i
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	cohort, err := vp.Lease(0, indices)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cohort {
		// Dropped and late clients error by design; either way the round
		// ran its reliability draw.
		_, _ = c.HandleRound(context.Background(), fl.RoundRequest{Round: 0, Model: spec})
	}
	vp.Release(0, cohort)
	// The next Release replaces the cohort kept for round collection; what
	// stays is the departed clients' own state.
	cohort, vp.cohort = nil, nil
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(vp)
	runtime.KeepAlive(spec)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(indices))
}

// TestResidentClientBytesIndependentOfRounds pins that a departed client's
// retained state does not scale with the scenario's round count. A
// cross-device client is sampled about once, so state sized for every round
// made the retained heap grow superlinearly with run length.
func TestResidentClientBytesIndependentOfRounds(t *testing.T) {
	short := departedBytesPerClient(t, 2)
	long := departedBytesPerClient(t, 4096)
	t.Logf("retained bytes per departed client: %.0f at 2 rounds, %.0f at 4096", short, long)
	if long > 1.25*short+512 {
		t.Errorf("a departed client retains %.0f B at 4096 rounds vs %.0f B at 2: per-client state grows with Rounds", long, short)
	}
}

// departedClientBudget bounds the heap one released client retains: its
// training rng, a map entry and, for the tenth of clients that are
// defended, an OASIS pipeline. Keeping whole clients resident retained about
// 670 B each after one round; the compact record of an rng and a pipeline
// measures 113 B on amd64.
const departedClientBudget = 200

// TestDepartedClientBytes pins the compact record: after one round and its
// Release, each departed client retains at most departedClientBudget bytes,
// so a cross-device run's live heap grows by records, not by clients.
func TestDepartedClientBytes(t *testing.T) {
	got := departedBytesPerClient(t, 2)
	t.Logf("retained bytes per departed client: %.0f", got)
	if got > departedClientBudget {
		t.Errorf("a departed client retains %.0f B, budget %d B", got, departedClientBudget)
	}
}
