package fl

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
)

func TestFedAvgPseudoGradientShapes(t *testing.T) {
	shards := testShards(t, 1)
	client := NewLocalClient("fa", shards[0], 8, nn.RandSource(30, 1))
	client.LocalSteps = 4
	client.LocalLR = 0.05
	model := testModel(nil)
	spec, err := EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.HandleRound(context.Background(), RoundRequest{Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	params := model.Params()
	if len(u.Grads) != len(params) {
		t.Fatalf("%d pseudo-gradient tensors, want %d", len(u.Grads), len(params))
	}
	for i, g := range u.Grads {
		if !g.SameShape(params[i].W) {
			t.Errorf("pseudo-gradient %d shape %v", i, g.Shape())
		}
	}
	// The pseudo-gradient must be non-trivial: 4 local steps moved weights.
	norm := 0.0
	for _, g := range u.Grads {
		norm += g.L2Norm()
	}
	if norm == 0 {
		t.Error("pseudo-gradient is zero after local training")
	}
}

func TestFedAvgSingleStepMatchesPlainGradient(t *testing.T) {
	// With LocalSteps=1 the pseudo-gradient path is bypassed; both modes
	// must return the plain analytic gradient for the same batch stream.
	shards := testShards(t, 1)
	model := testModel(nil)
	spec, err := EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	a := NewLocalClient("one", shards[0], 8, nn.RandSource(31, 1))
	b := NewLocalClient("one", shards[0], 8, nn.RandSource(31, 1))
	b.LocalSteps = 1
	ua, err := a.HandleRound(context.Background(), RoundRequest{Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	ub, err := b.HandleRound(context.Background(), RoundRequest{Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ua.Grads {
		if !ua.Grads[i].EqualApprox(ub.Grads[i], 1e-12) {
			t.Fatalf("gradient %d differs between modes", i)
		}
	}
}

func TestFedAvgTrainingConverges(t *testing.T) {
	shards := testShards(t, 3)
	roster := NewMemoryRoster()
	for i, s := range shards {
		c := NewLocalClient(fmt.Sprintf("fa%d", i), s, 16, nn.RandSource(32, uint64(i)))
		c.LocalSteps = 3
		c.LocalLR = 0.05
		roster.Add(c)
	}
	server := NewServer(ServerConfig{Rounds: 12, LearningRate: 0.05, Seed: 12}, testModel(nil), roster)
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if hist.FinalLoss() >= hist.Rounds[0].MeanLoss {
		t.Errorf("FedAvg loss did not decrease: %.4f → %.4f", hist.Rounds[0].MeanLoss, hist.FinalLoss())
	}
}

// flakyClient fails on even rounds.
type flakyClient struct {
	inner *LocalClient
}

func (f *flakyClient) ID() string { return f.inner.ID() }
func (f *flakyClient) HandleRound(ctx context.Context, req RoundRequest) (Update, error) {
	if req.Round%2 == 0 {
		return Update{}, errors.New("network glitch")
	}
	return f.inner.HandleRound(ctx, req)
}

func TestTolerateFailuresSkipsFlakyClients(t *testing.T) {
	shards := testShards(t, 2)
	roster := NewMemoryRoster()
	roster.Add(NewLocalClient("steady", shards[0], 8, nn.RandSource(33, 1)))
	roster.Add(&flakyClient{inner: NewLocalClient("flaky", shards[1], 8, nn.RandSource(33, 2))})
	server := NewServer(ServerConfig{Rounds: 4, LearningRate: 0.05, Seed: 13, TolerateFailures: true}, testModel(nil), roster)
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range hist.Rounds {
		if r.Round%2 == 0 {
			if len(r.Failed) != 1 || r.Failed[0] != "flaky" {
				t.Errorf("round %d failed=%v, want [flaky]", r.Round, r.Failed)
			}
			if len(r.Clients) != 1 {
				t.Errorf("round %d aggregated %d clients, want 1", r.Round, len(r.Clients))
			}
		} else if len(r.Failed) != 0 {
			t.Errorf("round %d unexpected failures %v", r.Round, r.Failed)
		}
	}
}

func TestWithoutToleranceFailuresAbort(t *testing.T) {
	shards := testShards(t, 1)
	roster := NewMemoryRoster()
	roster.Add(NewLocalClient("steady", shards[0], 8, nn.RandSource(34, 1)))
	roster.Add(&failingClient{id: "dead"})
	server := NewServer(ServerConfig{Rounds: 1, Seed: 1}, testModel(nil), roster)
	if _, err := server.Run(context.Background()); err == nil {
		t.Error("strict mode ignored a failing client")
	}
}
