package fl

import (
	"context"
	"fmt"
	rand "math/rand/v2"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
)

// TestUniformSamplerMatchesDefault: a nil Sampler is UniformSampler, so
// setting it must reproduce the nil-Sampler history bit for bit (same rng
// consumption, same selection order).
func TestUniformSamplerMatchesDefault(t *testing.T) {
	run := func(sampler ClientSampler) History {
		roster := buildRoster(t, 8)
		server := NewServer(ServerConfig{
			Rounds: 4, ClientsPerRound: 5, LearningRate: 0.05, Seed: 31,
		}, testModel(nil), roster)
		server.Sampler = sampler
		hist, err := server.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return hist
	}
	if a, b := run(nil), run(UniformSampler{}); !reflect.DeepEqual(a, b) {
		t.Errorf("UniformSampler diverges from default selection:\n nil: %+v\n uni: %+v", a, b)
	}
}

// countingSource counts the Uint64 calls a sampler makes on its rand.Rand.
type countingSource struct {
	rand.Source
	calls int
}

func (c *countingSource) Uint64() uint64 {
	c.calls++
	return c.Source.Uint64()
}

// TestUniformSamplerDrawsOm: picking a 1,024-client cohort from a million
// clients costs O(m) rng calls, not a replay of a million-entry
// permutation, and returns m distinct clients of the population.
func TestUniformSamplerDrawsOm(t *testing.T) {
	const n, m = 1_000_000, 1024
	src := &countingSource{Source: rand.NewPCG(5, 6)}
	sel := UniformSampler{}.SampleIndices(0, n, m, nil, rand.New(src))
	if src.calls > 1100 {
		t.Errorf("drew %d rng values for a %d-of-%d cohort, want at most 1,100", src.calls, m, n)
	}
	seen := make(map[int]bool, m)
	for _, i := range sel {
		if i < 0 || i >= n || seen[i] {
			t.Fatalf("client %d repeated or outside [0, %d)", i, n)
		}
		seen[i] = true
	}
	if len(sel) != m {
		t.Errorf("selected %d clients, want %d", len(sel), m)
	}
}

func TestSizeWeightedSamplerFavorsLargeShards(t *testing.T) {
	shards := testShards(t, 8)
	roster := NewMemoryRoster()
	for i, s := range shards {
		c := NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(70, uint64(i)))
		if i == 0 {
			// Blow up c0's apparent size: it should be selected nearly
			// every round.
			c.Shard = &repeatDataset{inner: s, factor: 1000}
		}
		roster.Add(c)
	}
	rng := nn.RandSource(3, 4)
	hits := 0
	const rounds = 50
	for round := 0; round < rounds; round++ {
		sel := (SizeWeightedSampler{}).SampleIndices(round, roster.NumClients(), 2, roster.NumSamples, rng)
		if len(sel) != 2 {
			t.Fatalf("selected %d clients, want 2", len(sel))
		}
		if sel[0] == sel[1] {
			t.Fatal("sampled the same client twice in one round")
		}
		for _, i := range sel {
			if i == 0 {
				hits++
			}
		}
	}
	if hits < rounds*9/10 {
		t.Errorf("heavy client selected %d/%d rounds; want nearly always", hits, rounds)
	}
}

func TestNewSamplerByName(t *testing.T) {
	for name, want := range map[string]string{"": "uniform", "uniform": "uniform", "size": "size"} {
		s, err := NewSamplerByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name() != want {
			t.Errorf("NewSamplerByName(%q).Name() = %s, want %s", name, s.Name(), want)
		}
	}
	if _, err := NewSamplerByName("zipf"); err == nil {
		t.Error("expected error for unknown sampler")
	}
}

// repeatDataset inflates a dataset's reported length (indices wrap), to give
// one client a huge apparent shard.
type repeatDataset struct {
	inner  data.Dataset
	factor int
}

func (r *repeatDataset) Name() string           { return r.inner.Name() + "-rep" }
func (r *repeatDataset) NumClasses() int        { return r.inner.NumClasses() }
func (r *repeatDataset) Shape() (int, int, int) { return r.inner.Shape() }
func (r *repeatDataset) Len() int               { return r.inner.Len() * r.factor }
func (r *repeatDataset) Sample(i int) (*imaging.Image, int) {
	return r.inner.Sample(i % r.inner.Len())
}

// TestAllowEmptyRounds: with TolerateFailures, a round in which everyone
// fails is recorded and skipped, not fatal.
func TestAllowEmptyRounds(t *testing.T) {
	roster := NewMemoryRoster()
	roster.Add(&failingClient{id: "dead1"})
	roster.Add(&failingClient{id: "dead2"})
	server := NewServer(ServerConfig{
		Rounds: 3, LearningRate: 0.05, Seed: 5,
		TolerateFailures: true,
	}, testModel(nil), roster)
	before := testModel(nil).Weights()
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != 3 {
		t.Fatalf("recorded %d rounds, want 3", len(hist.Rounds))
	}
	for _, r := range hist.Rounds {
		if len(r.Clients) != 0 || len(r.Failed) != 2 {
			t.Errorf("round %d: clients %v failed %v; want all failed", r.Round, r.Clients, r.Failed)
		}
	}
	after := server.Model.Weights()
	for i := range before {
		if !before[i].EqualApprox(after[i], 0) {
			t.Fatal("empty rounds must not move the model")
		}
	}
	// Without failure tolerance the same roster aborts the run.
	strict := NewServer(ServerConfig{
		Rounds: 3, LearningRate: 0.05, Seed: 5,
	}, testModel(nil), roster)
	if _, err := strict.Run(context.Background()); err == nil {
		t.Error("expected error without TolerateFailures")
	}
}

// TestAfterRoundHook checks the per-round callback fires in order with the
// recorded stats.
func TestAfterRoundHook(t *testing.T) {
	roster := buildRoster(t, 4)
	server := NewServer(ServerConfig{
		Rounds: 3, LearningRate: 0.05, Seed: 9, Workers: 2,
	}, testModel(nil), roster)
	var rounds []int
	server.AfterRound = func(round int, stats RoundStats) {
		if stats.Round != round {
			t.Errorf("hook round %d got stats for round %d", round, stats.Round)
		}
		rounds = append(rounds, round)
	}
	if _, err := server.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{0, 1, 2}) {
		t.Errorf("hook fired for rounds %v, want [0 1 2]", rounds)
	}
}

// TestAfterRoundHookSerialized pins the documented contract beyond ordering:
// the hook runs strictly serialized (never two invocations in flight) with
// no round dispatched underneath it, even when the round engine itself uses
// a worker pool. The rounds slice needs no lock precisely because of that
// contract — the race detector would flag any violation.
func TestAfterRoundHookSerialized(t *testing.T) {
	roster := buildRoster(t, 6)
	server := NewServer(ServerConfig{
		Rounds: 4, ClientsPerRound: 4, LearningRate: 0.05, Seed: 17, Workers: 4,
	}, testModel(nil), roster)
	var inFlight atomic.Int32
	var rounds []int
	server.AfterRound = func(round int, stats RoundStats) {
		if n := inFlight.Add(1); n != 1 {
			t.Errorf("AfterRound invoked concurrently (%d in flight)", n)
		}
		defer inFlight.Add(-1)
		time.Sleep(2 * time.Millisecond) // widen any overlap window
		rounds = append(rounds, round)
	}
	if _, err := server.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rounds, []int{0, 1, 2, 3}) {
		t.Errorf("hook fired for rounds %v, want [0 1 2 3]", rounds)
	}
}

// TestAfterRoundPanicSurfacesAsError pins the recover-wrap: a panicking hook
// must fail the run with an error naming the round — not hang the worker
// barrier or crash the process — and the rounds completed before the panic
// stay in the returned History.
func TestAfterRoundPanicSurfacesAsError(t *testing.T) {
	roster := buildRoster(t, 4)
	server := NewServer(ServerConfig{
		Rounds: 3, LearningRate: 0.05, Seed: 23, Workers: 2,
	}, testModel(nil), roster)
	server.AfterRound = func(round int, stats RoundStats) {
		if round == 1 {
			panic("hook exploded")
		}
	}
	hist, err := server.Run(context.Background())
	if err == nil {
		t.Fatal("expected the hook panic to surface as a run error")
	}
	for _, want := range []string{"AfterRound hook panicked", "round 1", "hook exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if len(hist.Rounds) != 2 {
		t.Errorf("History has %d rounds, want 2 (rounds 0 and 1 ran before the abort)", len(hist.Rounds))
	}
}

// BenchmarkUniformSampler1M times one cross-device cohort draw: 1024 of a
// million clients, the cross-device-1M preset's per-round selection.
func BenchmarkUniformSampler1M(b *testing.B) {
	rng := nn.RandSource(1, 2)
	b.ReportAllocs()
	for b.Loop() {
		if got := (UniformSampler{}).SampleIndices(0, 1_000_000, 1024, nil, rng); len(got) != 1024 {
			b.Fatalf("sampled %d clients, want 1024", len(got))
		}
	}
}
