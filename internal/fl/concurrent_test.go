package fl

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"github.com/oasisfl/oasis/internal/nn"
)

// buildRoster assembles n in-memory LocalClients over disjoint shards with
// per-client RNGs, exactly as a simulation would.
func buildRoster(t *testing.T, n int) *MemoryRoster {
	t.Helper()
	shards := testShards(t, n)
	roster := NewMemoryRoster()
	for i, s := range shards {
		roster.Add(NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(50, uint64(i))))
	}
	return roster
}

// runWithWorkers executes a fixed-seed run at the given worker count.
func runWithWorkers(t *testing.T, workers int, agg Aggregator) History {
	t.Helper()
	roster := buildRoster(t, 8)
	server := NewServer(ServerConfig{
		Rounds: 5, ClientsPerRound: 5, LearningRate: 0.05, Seed: 99, Workers: workers,
	}, testModel(nil), roster)
	server.Aggregator = agg
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return hist
}

// TestConcurrentHistoryDeterminism is the engine's core guarantee: the
// worker count only changes wall-clock time, never the trace. Histories
// must match bit for bit — client order, losses, gradient norms.
func TestConcurrentHistoryDeterminism(t *testing.T) {
	for _, aggName := range []string{"mean", "median", "trimmed:0.2", "normclip:5"} {
		t.Run(aggName, func(t *testing.T) {
			mk := func() Aggregator {
				a, err := NewAggregatorByName(aggName)
				if err != nil {
					t.Fatal(err)
				}
				return a
			}
			seq := runWithWorkers(t, 1, mk())
			con := runWithWorkers(t, 8, mk())
			if !reflect.DeepEqual(seq, con) {
				t.Errorf("Workers=1 and Workers=8 histories diverge:\n seq: %+v\n con: %+v", seq, con)
			}
		})
	}
}

// TestConcurrentModelDeterminism checks the trained weights themselves, not
// just the recorded history.
func TestConcurrentModelDeterminism(t *testing.T) {
	train := func(workers int) *nn.Sequential {
		roster := buildRoster(t, 8)
		model := testModel(nil)
		server := NewServer(ServerConfig{
			Rounds: 4, LearningRate: 0.05, Seed: 7, Workers: workers,
		}, model, roster)
		if _, err := server.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return model
	}
	a, b := train(1), train(8)
	wa, wb := a.Weights(), b.Weights()
	for i := range wa {
		if !wa[i].EqualApprox(wb[i], 0) {
			t.Fatalf("weight tensor %d differs between Workers=1 and Workers=8", i)
		}
	}
}

// slowClient delays before delegating, forcing real worker overlap.
type slowClient struct {
	inner Client
	delay time.Duration
}

func (s *slowClient) ID() string { return s.inner.ID() }
func (s *slowClient) HandleRound(ctx context.Context, req RoundRequest) (Update, error) {
	time.Sleep(s.delay)
	return s.inner.HandleRound(ctx, req)
}

// TestConcurrentDispatchWithFailures exercises the worker pool under -race:
// 8 healthy clients plus one that always fails, a shared observer, a shared
// (stateless) modifier path, and TolerateFailures accounting.
func TestConcurrentDispatchWithFailures(t *testing.T) {
	shards := testShards(t, 8)
	roster := NewMemoryRoster()
	for i, s := range shards {
		c := NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(60, uint64(i)))
		roster.Add(&slowClient{inner: c, delay: time.Millisecond})
	}
	roster.Add(&failingClient{id: "dead"})

	obs := &recordingObserver{}
	server := NewServer(ServerConfig{
		Rounds: 3, LearningRate: 0.05, Seed: 21, Workers: 8, TolerateFailures: true,
	}, testModel(nil), roster)
	server.Observer = obs
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if len(r.Failed) != 1 || r.Failed[0] != "dead" {
			t.Errorf("round %d failed=%v, want [dead]", r.Round, r.Failed)
		}
		if len(r.Clients) != 8 {
			t.Errorf("round %d aggregated %d clients, want 8", r.Round, len(r.Clients))
		}
	}
	if len(obs.updates) != 24 {
		t.Errorf("observer saw %d updates, want 24", len(obs.updates))
	}
	// Observer order must equal the per-round aggregation order.
	for i, u := range obs.updates {
		if u.ClientID != hist.Rounds[i/8].Clients[i%8] {
			t.Fatalf("observer update %d is %s, history says %s", i, u.ClientID, hist.Rounds[i/8].Clients[i%8])
		}
	}
}

// TestConcurrentStrictModeFailsDeterministically: without failure tolerance
// the round aborts with the earliest-selected failing client's error, no
// matter which worker finished first.
func TestConcurrentStrictModeFailsDeterministically(t *testing.T) {
	roster := buildRoster(t, 6)
	roster.Add(&failingClient{id: "dead"})
	errs := make(map[string]bool)
	for _, workers := range []int{1, 4, 8} {
		server := NewServer(ServerConfig{Rounds: 2, Seed: 33, Workers: workers}, testModel(nil), roster)
		_, err := server.Run(context.Background())
		if err == nil {
			t.Fatalf("Workers=%d: strict mode ignored a failing client", workers)
		}
		errs[err.Error()] = true
	}
	if len(errs) != 1 {
		t.Errorf("strict-mode error differs across worker counts: %v", errs)
	}
}

// TestServerReleasesUpdateGradients: once the Observer and the Aggregator
// have seen an update, the server hands its gradient tensors back to the
// tensor arena, at every worker count. An Observer that keeps the updates
// finds every kept gradient released after Run.
func TestServerReleasesUpdateGradients(t *testing.T) {
	for _, workers := range []int{1, 4} {
		obs := &recordingObserver{}
		server := NewServer(ServerConfig{
			Rounds: 3, ClientsPerRound: 5, LearningRate: 0.05, Seed: 12, Workers: workers,
		}, testModel(nil), buildRoster(t, 6))
		server.Observer = obs
		if _, err := server.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(obs.updates) != 15 {
			t.Fatalf("Workers=%d: observer saw %d updates, want 15", workers, len(obs.updates))
		}
		for _, u := range obs.updates {
			for i, g := range u.Grads {
				if g.Data() != nil {
					t.Fatalf("Workers=%d: round %d client %s gradient %d was not released", workers, u.Round, u.ClientID, i)
				}
			}
		}
	}
}

// cancellingClient delegates to a real client, logging each round it is
// asked to train, and cancels the run's context when asked to train round
// at.
type cancellingClient struct {
	inner Client
	log   *roundLog
	at    int
}

// roundLog is the rounds cancellingClients were asked to train, shared by
// concurrent workers.
type roundLog struct {
	mu     sync.Mutex
	rounds []int
	cancel context.CancelFunc
}

func (c *cancellingClient) ID() string { return c.inner.ID() }
func (c *cancellingClient) HandleRound(ctx context.Context, req RoundRequest) (Update, error) {
	c.log.mu.Lock()
	c.log.rounds = append(c.log.rounds, req.Round)
	c.log.mu.Unlock()
	if req.Round == c.at {
		c.log.cancel()
	}
	return c.inner.HandleRound(ctx, req)
}

// TestRunStopsWhenCancelled: a cancelled context ends a tolerant run with an
// error wrapping context.Canceled and the rounds completed before it. A
// round the cancellation interrupts is not recorded, and no client is asked
// to train after it, at every worker count.
func TestRunStopsWhenCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			name       string
			at         int // round during which a client cancels; -1 cancels before Run
			wantRounds int
		}{
			{"before the run", -1, 0},
			{"during round 1", 1, 1},
		} {
			ctx, cancel := context.WithCancel(context.Background())
			log := &roundLog{cancel: cancel}
			roster := NewMemoryRoster()
			for i, s := range testShards(t, 4) {
				inner := NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(70, uint64(i)))
				roster.Add(&cancellingClient{inner: inner, log: log, at: tc.at})
			}
			if tc.at < 0 {
				cancel()
			}
			server := NewServer(ServerConfig{
				Rounds: 4, LearningRate: 0.05, Seed: 8, Workers: workers, TolerateFailures: true,
			}, testModel(nil), roster)
			hist, err := server.Run(ctx)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("Workers=%d %s: Run error %v, want context.Canceled", workers, tc.name, err)
			}
			if len(hist.Rounds) != tc.wantRounds {
				t.Errorf("Workers=%d %s: recorded %d rounds, want %d", workers, tc.name, len(hist.Rounds), tc.wantRounds)
			}
			for _, r := range log.rounds {
				if r > tc.at {
					t.Errorf("Workers=%d %s: a client was asked to train round %d", workers, tc.name, r)
					break
				}
			}
		}
	}
}

// TestConcurrentTCPRounds drives the worker pool over the real TCP
// transport under -race: concurrent exchanges on distinct connections plus
// a Close racing nothing (after the run) must be clean.
func TestConcurrentTCPRounds(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPServerOptions{ExchangeTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stop := startTCPClients(t, srv.Addr(), 8)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.WaitForClients(ctx, 8); err != nil {
		t.Fatal(err)
	}
	server := NewServer(ServerConfig{Rounds: 3, LearningRate: 0.05, Seed: 17, Workers: 8}, testModel(nil), srv)
	hist, err := server.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if len(r.Clients) != 8 {
			t.Errorf("round %d aggregated %d clients, want 8", r.Round, len(r.Clients))
		}
	}
}

// TestWorkersDefault ensures the zero value resolves to a concurrent pool
// without disturbing determinism (NumCPU may be anything on CI).
func TestWorkersDefault(t *testing.T) {
	def := runWithWorkers(t, 0, nil)
	one := runWithWorkers(t, 1, nil)
	if !reflect.DeepEqual(def, one) {
		t.Error("Workers=0 (NumCPU) history differs from Workers=1")
	}
}

// TestMemoryRosterConcurrentAccess hammers Add, NumClients and Lease from
// many goroutines (the TCP accept loop registers mid-round in real
// deployments).
func TestMemoryRosterConcurrentAccess(t *testing.T) {
	roster := NewMemoryRoster()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			roster.Add(&failingClient{id: fmt.Sprintf("g%d", i)})
			n := roster.NumClients()
			if _, err := roster.Lease(0, []int{n - 1}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if n := roster.NumClients(); n != 16 {
		t.Errorf("roster has %d clients, want 16", n)
	}
}
