package fl

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
)

// TestUniformSamplerMatchesDefault pins the compatibility guarantee: setting
// Sampler to UniformSampler must reproduce the nil-Sampler history bit for
// bit (same rng consumption, same selection order).
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

// stallClient blocks until its context is cancelled — the pathological
// straggler a round deadline exists for.
type stallClient struct{ id string }

func (s *stallClient) ID() string { return s.id }
func (s *stallClient) HandleRound(ctx context.Context, req RoundRequest) (Update, error) {
	<-ctx.Done()
	return Update{}, ctx.Err()
}

// TestRoundDeadlineDegradesRound: with a deadline and TolerateFailures, a
// client that never answers is dropped from the round instead of hanging it.
func TestRoundDeadlineDegradesRound(t *testing.T) {
	roster := buildRoster(t, 4)
	roster.Add(&stallClient{id: "hung"})
	server := NewServer(ServerConfig{
		Rounds: 2, LearningRate: 0.05, Seed: 11, Workers: 4,
		TolerateFailures: true, RoundDeadline: 150 * time.Millisecond,
	}, testModel(nil), roster)
	done := make(chan error, 1)
	var hist History
	go func() {
		var err error
		hist, err = server.Run(context.Background())
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run with a hung client did not finish: deadline not enforced")
	}
	for _, r := range hist.Rounds {
		if len(r.Clients) != 4 {
			t.Errorf("round %d aggregated %d clients, want the 4 healthy ones", r.Round, len(r.Clients))
		}
		if len(r.Failed) != 1 || r.Failed[0] != "hung" {
			t.Errorf("round %d failed list %v, want [hung]", r.Round, r.Failed)
		}
	}
}

// TestAllowEmptyRounds: a round in which everyone fails is recorded and
// skipped, not fatal.
func TestAllowEmptyRounds(t *testing.T) {
	roster := NewMemoryRoster()
	roster.Add(&failingClient{id: "dead1"})
	roster.Add(&failingClient{id: "dead2"})
	server := NewServer(ServerConfig{
		Rounds: 3, LearningRate: 0.05, Seed: 5,
		TolerateFailures: true, AllowEmptyRounds: true,
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
	// Without the flag the same roster aborts the run.
	strict := NewServer(ServerConfig{
		Rounds: 3, LearningRate: 0.05, Seed: 5, TolerateFailures: true,
	}, testModel(nil), roster)
	if _, err := strict.Run(context.Background()); err == nil {
		t.Error("expected error without AllowEmptyRounds")
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
