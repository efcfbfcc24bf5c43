package fl

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// countingAggregator delegates to an inner Aggregator and counts the calls
// the server makes.
type countingAggregator struct {
	inner                  Aggregator
	resets, adds, finishes int
}

func (a *countingAggregator) Name() string { return a.inner.Name() }
func (a *countingAggregator) Reset()       { a.resets++; a.inner.Reset() }
func (a *countingAggregator) Add(u Update) error {
	a.adds++
	return a.inner.Add(u)
}
func (a *countingAggregator) Finalize() ([]*tensor.Tensor, error) {
	a.finishes++
	return a.inner.Finalize()
}

// stubClient uploads gradients of fixed shapes, every element fill, drawn
// from the tensor arena as a trained update's are.
type stubClient struct {
	id     string
	shapes [][]int
	fill   float64
}

func (c *stubClient) ID() string { return c.id }
func (c *stubClient) HandleRound(_ context.Context, req RoundRequest) (Update, error) {
	grads := make([]*tensor.Tensor, len(c.shapes))
	for i, shape := range c.shapes {
		grads[i] = tensor.NewPooled(shape...)
		grads[i].Fill(c.fill)
	}
	return Update{ClientID: c.id, Round: req.Round, Grads: grads, Loss: 1, BatchSize: 1}, nil
}

// paramShapes lists the model's parameter shapes.
func paramShapes(m *nn.Sequential) [][]int {
	var shapes [][]int
	for _, p := range m.Params() {
		shapes = append(shapes, p.W.Shape())
	}
	return shapes
}

// stubRoster enrols one stubClient per shape list, filled with fills[i]
// (1 when fills is shorter).
func stubRoster(shapes [][][]int, fills ...float64) *MemoryRoster {
	roster := NewMemoryRoster()
	for i, s := range shapes {
		fill := 1.0
		if i < len(fills) {
			fill = fills[i]
		}
		roster.Add(&stubClient{id: fmt.Sprintf("c%d", i), shapes: s, fill: fill})
	}
	return roster
}

// swappedShapes are the gradient shapes of testModel's architecture with a
// 32-neuron first layer planted, which the global model cannot absorb.
var swappedShapes = [][]int{{32, 64}, {32}, {4, 32}, {4}}

// TestSwappedRoundChecksLaterShapes: a later update that does not match the
// first one still aborts a round that aggregates nothing, with the error
// text the aggregator's own check gives.
func TestSwappedRoundChecksLaterShapes(t *testing.T) {
	for _, tc := range []struct {
		name   string
		second [][]int
	}{
		{"shape", [][]int{{32, 64}, {31}, {4, 32}, {4}}},
		{"count", [][]int{{32, 64}, {32}}},
	} {
		// The text FedAvgMean.Add gives for the same pair of updates.
		mean := NewFedAvgMean()
		first, _ := (&stubClient{id: "c0", shapes: swappedShapes}).HandleRound(context.Background(), RoundRequest{})
		second, _ := (&stubClient{id: "c1", shapes: tc.second}).HandleRound(context.Background(), RoundRequest{})
		if err := mean.Add(first); err != nil {
			t.Fatal(err)
		}
		addErr := mean.Add(second)
		if addErr == nil {
			t.Fatalf("%s: FedAvgMean accepted a mismatched update", tc.name)
		}
		want := "fl: round 0: " + addErr.Error()

		for _, workers := range []int{1, 3} {
			agg := &countingAggregator{inner: NewFedAvgMean()}
			global := testModel(nil)
			before := global.Weights()
			server := NewServer(ServerConfig{Rounds: 1, Workers: workers},
				global, stubRoster([][][]int{swappedShapes, tc.second, swappedShapes}))
			server.Aggregator = agg
			_, err := server.Run(context.Background())
			if err == nil || err.Error() != want {
				t.Errorf("%s Workers=%d: err = %v, want %q", tc.name, workers, err, want)
			}
			if agg.adds != 0 || agg.finishes != 0 {
				t.Errorf("%s Workers=%d: %d adds, %d finalizes; want 0, 0", tc.name, workers, agg.adds, agg.finishes)
			}
			for i, w := range global.Weights() {
				if !w.EqualApprox(before[i], 0) {
					t.Errorf("%s Workers=%d: global parameter %d changed", tc.name, workers, i)
				}
			}
		}
	}
}

// TestMatchedSwapAppliesStep: a swapped model with the global model's
// shapes (a planted layer as wide as the hidden layer) still aggregates
// every update and applies the step.
func TestMatchedSwapAppliesStep(t *testing.T) {
	roster := NewMemoryRoster()
	for i, s := range testShards(t, 3) {
		roster.Add(NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(3, uint64(i))))
	}
	planted := nn.NewSequential(
		nn.NewLinear("malicious", 64, 16, nn.RandSource(21, 21)),
		nn.NewReLU("r"),
		nn.NewLinear("head", 16, 4, nn.RandSource(21, 22)),
	)
	spec, err := EncodeModel(planted)
	if err != nil {
		t.Fatal(err)
	}
	global := testModel(nil)
	before := global.Weights()
	agg := &countingAggregator{inner: NewFedAvgMean()}
	server := NewServer(ServerConfig{Rounds: 2, LearningRate: 0.5, Seed: 1}, global, roster)
	server.Modifier = &recordingModifier{spec: spec}
	server.Aggregator = agg
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if agg.adds != 6 || agg.finishes != 2 {
		t.Errorf("%d adds, %d finalizes; want 6, 2", agg.adds, agg.finishes)
	}
	for _, r := range hist.Rounds {
		if !(r.GradNorm > 0) {
			t.Errorf("round %d GradNorm = %g, want > 0", r.Round, r.GradNorm)
		}
	}
	changed := false
	for i, w := range global.Weights() {
		changed = changed || !w.EqualApprox(before[i], 0)
	}
	if !changed {
		t.Error("a matched-shape swapped round left the global model unchanged")
	}
}

// TestNormClipNaNOnlyAbortsApplicableRounds: a non-finite update aborts a
// normclip round whose aggregate would reach the global model, but not a
// round that applies nothing.
func TestNormClipNaNOnlyAbortsApplicableRounds(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shapes  [][]int
		wantErr string
	}{
		{"applicable", paramShapes(testModel(nil)), "not finite"},
		{"swapped", swappedShapes, ""},
	} {
		clip, err := NewNormClipped(1)
		if err != nil {
			t.Fatal(err)
		}
		global := testModel(nil)
		server := NewServer(ServerConfig{Rounds: 1, Workers: 1}, global,
			stubRoster([][][]int{tc.shapes, tc.shapes, tc.shapes}, 0.1, math.NaN(), 0.1))
		server.Aggregator = clip
		hist, err := server.Run(context.Background())
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr == "" && len(hist.Rounds) != 1:
			t.Errorf("%s: %d rounds recorded, want 1", tc.name, len(hist.Rounds))
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

// BenchmarkServerRound times the server's side of one 8-client round at the
// paper-attack benchmark's shape: a 3072→32→10 global MLP, and clients
// uploading either its gradients (honest) or those of a swapped model with a
// 256-neuron planted layer (3072→256→10), which the global model cannot
// absorb. The clients only hand out arena tensors of the right shape, so
// the time is the round engine's merge, aggregation and step.
//
//	go test -run '^$' -bench ServerRound -cpu 1 ./internal/fl
func BenchmarkServerRound(b *testing.B) {
	r := nn.RandSource(1, 1)
	global := nn.NewSequential(
		nn.NewLinear("fc1", 3072, 32, r),
		nn.NewReLU("relu"),
		nn.NewLinear("fc2", 32, 10, r),
	)
	for _, bc := range []struct {
		name   string
		shapes [][]int
	}{
		{"honest", paramShapes(global)},
		{"swapped", [][]int{{256, 3072}, {256}, {10, 256}, {10}}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			shapes := make([][][]int, 8)
			for i := range shapes {
				shapes[i] = bc.shapes
			}
			server := NewServer(ServerConfig{Rounds: 1, LearningRate: 1e-9, Workers: 1}, global, stubRoster(shapes))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := server.runRound(ctx, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
