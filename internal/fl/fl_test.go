package fl

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

func testShards(t *testing.T, n int) []data.Dataset {
	t.Helper()
	ds := data.NewSynthCustom("fltest", 4, 1, 8, 8, 64*n, 7)
	rng := nn.RandSource(7, 7)
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 64
	}
	parts, err := data.Split(ds.Len(), rng, sizes...)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]data.Dataset, n)
	for i, idx := range parts {
		out[i] = data.NewSubset(ds, idx, fmt.Sprintf("shard-%d", i))
	}
	return out
}

func testModel(rng interface {
	NormFloat64() float64
	IntN(int) int
}) *nn.Sequential {
	_ = rng
	r := nn.RandSource(11, 11)
	return nn.NewSequential(
		nn.NewLinear("fc1", 64, 16, r),
		nn.NewReLU("relu"),
		nn.NewLinear("fc2", 16, 4, r),
	)
}

func TestHonestTrainingReducesLoss(t *testing.T) {
	shards := testShards(t, 3)
	roster := NewMemoryRoster()
	for i, s := range shards {
		roster.Add(NewLocalClient(fmt.Sprintf("c%d", i), s, 16, nn.RandSource(1, uint64(i))))
	}
	server := NewServer(ServerConfig{Rounds: 25, LearningRate: 0.05, Seed: 3}, testModel(nil), roster)
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != 25 {
		t.Fatalf("%d rounds recorded", len(hist.Rounds))
	}
	first := hist.Rounds[0].MeanLoss
	last := hist.FinalLoss()
	if last >= first {
		t.Errorf("loss did not decrease: %.4f → %.4f", first, last)
	}
}

func TestClientSampling(t *testing.T) {
	shards := testShards(t, 4)
	roster := NewMemoryRoster()
	for i, s := range shards {
		roster.Add(NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(2, uint64(i))))
	}
	server := NewServer(ServerConfig{Rounds: 6, ClientsPerRound: 2, LearningRate: 0.05, Seed: 5}, testModel(nil), roster)
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	participants := map[string]bool{}
	for _, r := range hist.Rounds {
		if len(r.Clients) != 2 {
			t.Fatalf("round %d selected %d clients, want 2", r.Round, len(r.Clients))
		}
		for _, c := range r.Clients {
			participants[c] = true
		}
	}
	if len(participants) < 3 {
		t.Errorf("only %d distinct clients ever selected across 6 rounds", len(participants))
	}
}

func TestServerNoClients(t *testing.T) {
	server := NewServer(ServerConfig{Rounds: 1}, testModel(nil), NewMemoryRoster())
	if _, err := server.Run(context.Background()); err == nil {
		t.Error("run with empty roster succeeded")
	}
}

// failingClient returns an error on every round.
type failingClient struct{ id string }

func (f *failingClient) ID() string { return f.id }
func (f *failingClient) HandleRound(context.Context, RoundRequest) (Update, error) {
	return Update{}, errors.New("shard corrupted")
}

func TestServerPropagatesClientError(t *testing.T) {
	roster := NewMemoryRoster()
	roster.Add(&failingClient{id: "bad"})
	server := NewServer(ServerConfig{Rounds: 1}, testModel(nil), roster)
	_, err := server.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "shard corrupted") {
		t.Errorf("err = %v", err)
	}
}

// recordingModifier rewrites the model and counts invocations.
type recordingModifier struct {
	calls int
	spec  ModelSpec
}

func (m *recordingModifier) Modify(round int, _ ModelSpec) (ModelSpec, error) {
	m.calls++
	return m.spec, nil
}
func (m *recordingModifier) Name() string { return "recording" }

// recordingObserver collects updates, and the shape of each one's first
// gradient: the server releases the gradient tensors once Observe returns.
type recordingObserver struct {
	mu      sync.Mutex
	updates []Update
	shapes  [][]int
}

func (o *recordingObserver) Observe(_ int, u Update) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.updates = append(o.updates, u)
	o.shapes = append(o.shapes, u.Grads[0].Shape())
}

func TestDishonestModifierSwapsModelAndSkipsAggregation(t *testing.T) {
	shards := testShards(t, 2)
	roster := NewMemoryRoster()
	for i, s := range shards {
		roster.Add(NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(3, uint64(i))))
	}
	global := testModel(nil)
	before := global.Weights()

	rng := nn.RandSource(13, 13)
	malicious := nn.NewSequential(
		nn.NewLinear("malicious", 64, 32, rng),
		nn.NewReLU("r"),
		nn.NewLinear("head", 32, 4, rng),
	)
	malSpec, err := EncodeModel(malicious)
	if err != nil {
		t.Fatal(err)
	}
	mod := &recordingModifier{spec: malSpec}
	obs := &recordingObserver{}
	server := NewServer(ServerConfig{Rounds: 2, LearningRate: 0.5, Seed: 1}, global, roster)
	server.Modifier = mod
	server.Observer = obs
	if _, err := server.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if mod.calls != 2 {
		t.Errorf("modifier called %d times, want 2", mod.calls)
	}
	if len(obs.updates) != 4 {
		t.Errorf("observer saw %d updates, want 4", len(obs.updates))
	}
	// The malicious architecture (32-neuron layer) reached the clients.
	for _, shape := range obs.shapes {
		if shape[0] != 32 {
			t.Errorf("update gradient shape %v — malicious model not dispatched", shape)
		}
	}
	// The global model cannot absorb mismatched updates: weights unchanged.
	after := global.Weights()
	for i := range before {
		if !before[i].EqualApprox(after[i], 0) {
			t.Error("global weights changed despite architecture mismatch")
		}
	}
}

func TestLocalClientAppliesGradientDefense(t *testing.T) {
	shards := testShards(t, 1)
	client := NewLocalClient("c0", shards[0], 8, nn.RandSource(4, 4))
	client.Defense = zeroingDefense{}
	spec, err := EncodeModel(testModel(nil))
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.HandleRound(context.Background(), RoundRequest{Round: 0, Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range u.Grads {
		if g.L2Norm() != 0 {
			t.Fatal("gradient defense was not applied")
		}
	}
}

type zeroingDefense struct{}

func (zeroingDefense) ApplyBatch(b *data.Batch) *data.Batch { return b }
func (zeroingDefense) ApplyGrads(grads []*tensor.Tensor) {
	for _, g := range grads {
		g.Zero()
	}
}
func (zeroingDefense) Name() string { return "zeroing" }

func TestLocalClientHonoursContext(t *testing.T) {
	shards := testShards(t, 1)
	client := NewLocalClient("c0", shards[0], 8, nn.RandSource(5, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := EncodeModel(testModel(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.HandleRound(ctx, RoundRequest{Model: spec}); err == nil {
		t.Error("cancelled context not honoured")
	}
}

func TestUpdatePayloadShapes(t *testing.T) {
	shards := testShards(t, 1)
	client := NewLocalClient("c0", shards[0], 8, nn.RandSource(6, 6))
	model := testModel(nil)
	spec, err := EncodeModel(model)
	if err != nil {
		t.Fatal(err)
	}
	u, err := client.HandleRound(context.Background(), RoundRequest{Round: 3, Model: spec})
	if err != nil {
		t.Fatal(err)
	}
	if u.Round != 3 || u.ClientID != "c0" || u.BatchSize != 8 {
		t.Errorf("update metadata = %+v", u)
	}
	params := model.Params()
	if len(u.Grads) != len(params) {
		t.Fatalf("%d gradient tensors, want %d", len(u.Grads), len(params))
	}
	for i, g := range u.Grads {
		if !g.SameShape(params[i].W) {
			t.Errorf("gradient %d shape %v != param %v", i, g.Shape(), params[i].W.Shape())
		}
	}
}
