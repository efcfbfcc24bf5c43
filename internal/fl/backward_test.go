package fl

import (
	"context"
	"math"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// fullChainUpdate recomputes a LocalClient update with the historical full
// per-layer backward chain, which also computes the first layer's input
// gradient: the same batch stream, the same local SGD steps and the same
// pseudo-gradient arithmetic as HandleRound.
func fullChainUpdate(t *testing.T, shard data.Dataset, spec ModelSpec, batchSize, steps int, lr float64, seed uint64) []*tensor.Tensor {
	t.Helper()
	net, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	rng := nn.RandSource(seed, 1)
	initial := net.Weights()
	for step := 0; step < steps; step++ {
		batch, err := data.RandomBatch(shard, rng, min(batchSize, shard.Len()))
		if err != nil {
			t.Fatal(err)
		}
		x := batch.Tensor4D()
		if spec.InputKind == "flat" {
			x = batch.Flatten()
		}
		net.ZeroGrad()
		_, g := nn.SoftmaxCrossEntropy{}.Compute(net.Forward(x, true), batch.Labels)
		for i := len(net.Layers) - 1; i >= 0; i-- {
			g = net.Layers[i].Backward(g)
		}
		if steps > 1 {
			for _, p := range net.Params() {
				p.W.AddScaledInPlace(-lr, p.G)
			}
		}
	}
	if steps == 1 {
		return net.Gradients()
	}
	final := net.Weights()
	out := make([]*tensor.Tensor, len(final))
	for i := range final {
		out[i] = initial[i].Sub(final[i]).ScaleInPlace(1 / lr)
	}
	return out
}

// TestClientUpdateMatchesFullChain pins that skipping the first layer's input
// gradient leaves client uploads bit-identical, for a Linear-first MLP and a
// Conv2D-first ResNetLite, in both FedSGD and FedAvg (LocalSteps > 1) mode.
func TestClientUpdateMatchesFullChain(t *testing.T) {
	shard := testShards(t, 1)[0]
	models := map[string]*nn.Sequential{
		"mlp":    testModel(nil),
		"resnet": nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: 1, NumClasses: 4, Width: 2}, nn.RandSource(40, 1)),
	}
	for _, name := range []string{"mlp", "resnet"} {
		spec, err := EncodeModel(models[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, steps := range []int{1, 3} {
			c := NewLocalClient("diff", shard, 8, nn.RandSource(41, 1))
			c.LocalSteps = steps
			c.LocalLR = 0.05
			u, err := c.HandleRound(context.Background(), RoundRequest{Model: spec})
			if err != nil {
				t.Fatal(err)
			}
			want := fullChainUpdate(t, shard, spec, 8, steps, 0.05, 41)
			if len(u.Grads) != len(want) {
				t.Fatalf("%s/%d steps: %d tensors, want %d", name, steps, len(u.Grads), len(want))
			}
			for i := range want {
				g, w := u.Grads[i].Data(), want[i].Data()
				for j := range w {
					if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
						t.Fatalf("%s/%d steps: grad %d[%d] = %v, full chain gives %v", name, steps, i, j, g[j], w[j])
					}
				}
			}
		}
	}
}
