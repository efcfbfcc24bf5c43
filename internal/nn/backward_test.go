package nn

import (
	"math"
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/tensor"
)

// fullChainBackward is the historical Sequential.Backward: every layer's full
// Backward, the first layer's input-gradient product included.
func fullChainBackward(net *Sequential, gradOut *tensor.Tensor) *tensor.Tensor {
	for i := len(net.Layers) - 1; i >= 0; i-- {
		gradOut = net.Layers[i].Backward(gradOut)
	}
	return gradOut
}

// requireSameGrads fails unless both networks hold bit-identical parameter
// gradients.
func requireSameGrads(t *testing.T, got, want *Sequential) {
	t.Helper()
	gp, wp := got.Params(), want.Params()
	if len(gp) != len(wp) {
		t.Fatalf("%d params, want %d", len(gp), len(wp))
	}
	for i := range gp {
		g, w := gp[i].G.Data(), wp[i].G.Data()
		for j := range w {
			if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
				t.Fatalf("%s[%d] = %v, full chain gives %v", gp[i].Name, j, g[j], w[j])
			}
		}
	}
}

// TestBackwardSkipsOnlyInputGradient pins that dropping the first layer's
// input gradient leaves every parameter gradient bit-identical to the full
// per-layer chain, for a Linear-first MLP, a Conv2D-first ResNetLite, and a
// first layer without a parameter-only half. The attacks' RTF victim is
// covered in internal/attack.
func TestBackwardSkipsOnlyInputGradient(t *testing.T) {
	cases := []struct {
		name  string
		net   *Sequential
		input []int
	}{
		{"mlp", NewSequential(
			NewLinear("fc1", 48, 16, RandSource(21, 1)),
			NewReLU("relu"),
			NewLinear("fc2", 16, 5, RandSource(21, 1)),
		), []int{6, 48}},
		{"resnet", NewResNetLite(ResNetLiteConfig{InChannels: 3, NumClasses: 5, Width: 4}, RandSource(21, 3)), []int{6, 3, 4, 4}},
		{"flatten-first", NewSequential(
			NewFlatten("flat"),
			NewLinear("fc", 48, 5, RandSource(21, 4)),
		), []int{6, 3, 4, 4}},
	}
	labels := []int{0, 1, 2, 3, 4, 0}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := randInput(RandSource(21, 5), tc.input...)
			ref := tc.net.Clone()
			// Two steps, so the second runs over caches and arena buffers the
			// first one left behind.
			for step := 0; step < 2; step++ {
				tc.net.ZeroGrad()
				ref.ZeroGrad()
				_, g := SoftmaxCrossEntropy(tc.net.Forward(x, true), labels)
				tc.net.Backward(g)
				_, gr := SoftmaxCrossEntropy(ref.Forward(x, true), labels)
				fullChainBackward(ref, gr)
				requireSameGrads(t, tc.net, ref)
			}
		})
	}
}

// badInputGrad is a Linear whose input gradient is off by a factor of two
// while its parameter gradients stay exact.
type badInputGrad struct{ *Linear }

func (b badInputGrad) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	return b.Linear.Backward(gradOut).ScaleInPlace(2)
}

// TestCheckGradientsCatchesInputGradient pins that CheckGradients still
// checks the input gradient now that Sequential.Backward skips it.
func TestCheckGradientsCatchesInputGradient(t *testing.T) {
	rng := RandSource(22, 1)
	net := NewSequential(badInputGrad{NewLinear("fc", 6, 4, rng)})
	res, err := CheckGradients(net, randInput(rng, 3, 6), []int{0, 2, 3}, 1e-5)
	if err == nil {
		t.Fatalf("wrong input gradient passed the check (max rel err %.3e)", res.MaxRelErr)
	}
	if res.Param != "input" || !strings.Contains(err.Error(), "input") {
		t.Fatalf("worst error at %q (%v), want the input gradient", res.Param, err)
	}
}
