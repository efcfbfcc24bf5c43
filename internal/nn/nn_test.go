package nn

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/tensor"
)

func TestSequentialCloneIsIndependent(t *testing.T) {
	rng := RandSource(1, 2)
	net := NewSequential(
		NewLinear("fc1", 4, 6, rng),
		NewReLU("relu"),
		NewLinear("fc2", 6, 3, rng),
	)
	cl := net.Clone()
	// Same weights initially…
	x := randInput(rng, 2, 4)
	a := net.Forward(x, false)
	b := cl.Forward(x, false)
	if !a.EqualApprox(b, 1e-12) {
		t.Fatal("clone forward differs from original")
	}
	// …but mutating the clone leaves the original untouched.
	cl.Params()[0].W.Fill(0)
	c := net.Forward(x, false)
	if !a.EqualApprox(c, 1e-12) {
		t.Error("mutating clone affected original weights")
	}
}

func TestSequentialWeightsRoundTrip(t *testing.T) {
	rng := RandSource(3, 2)
	net := NewSequential(NewLinear("fc", 3, 2, rng))
	ws := net.Weights()
	ws[0].Fill(7)
	if err := net.SetWeights(ws); err != nil {
		t.Fatal(err)
	}
	if got := net.Params()[0].W.At(1, 2); got != 7 {
		t.Errorf("SetWeights did not copy: %g", got)
	}
	// Error paths.
	if err := net.SetWeights(ws[:1]); err == nil {
		t.Error("SetWeights with missing tensors did not error")
	}
	bad := []*tensor.Tensor{tensor.New(1, 1), tensor.New(2)}
	if err := net.SetWeights(bad); err == nil {
		t.Error("SetWeights with wrong shapes did not error")
	}
}

func TestGradientsAreCopies(t *testing.T) {
	rng := RandSource(5, 2)
	net := NewSequential(NewLinear("fc", 3, 2, rng))
	x := randInput(rng, 2, 3)
	out := net.Forward(x, true)
	_, g := SoftmaxCrossEntropy(out, []int{0, 1})
	net.Backward(g)
	grads := net.Gradients()
	grads[0].Fill(0)
	if net.Params()[0].G.L2Norm() == 0 {
		t.Error("Gradients() returned a view of parameter gradients")
	}
}

func TestGradientAccumulation(t *testing.T) {
	rng := RandSource(6, 2)
	net := NewSequential(NewLinear("fc", 3, 2, rng))
	x := randInput(rng, 2, 3)
	run := func() {
		out := net.Forward(x, true)
		_, g := SoftmaxCrossEntropy(out, []int{0, 1})
		net.Backward(g)
	}
	net.ZeroGrad()
	run()
	once := net.Params()[0].G.Clone()
	run() // no ZeroGrad: gradients must accumulate
	twice := net.Params()[0].G
	if !twice.EqualApprox(once.Scale(2), 1e-9) {
		t.Error("gradients did not accumulate across backward passes")
	}
}

func TestParamNames(t *testing.T) {
	rng := RandSource(7, 2)
	net := NewResNetLite(ResNetLiteConfig{InChannels: 3, NumClasses: 4, Width: 4}, rng)
	seen := map[string]bool{}
	for _, p := range net.Params() {
		if p.Name == "" {
			t.Error("parameter with empty name")
		}
		if seen[p.Name] {
			t.Errorf("duplicate parameter name %q", p.Name)
		}
		seen[p.Name] = true
		if !p.W.SameShape(p.G) {
			t.Errorf("parameter %q gradient shape mismatch", p.Name)
		}
	}
	if len(seen) < 10 {
		t.Errorf("ResNet-lite exposes only %d params", len(seen))
	}
}

func TestNumParamsPositive(t *testing.T) {
	rng := RandSource(8, 2)
	net := NewResNetLite(ResNetLiteConfig{InChannels: 3, NumClasses: 10, Width: 8}, rng)
	if n := net.NumParams(); n < 1000 {
		t.Errorf("NumParams = %d, suspiciously small", n)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := RandSource(9, 2)
	logits := randInput(rng, 4, 7)
	p := Softmax(logits)
	for i := 0; i < 4; i++ {
		s := 0.0
		for _, v := range p.RowView(i) {
			if v < 0 {
				t.Fatalf("negative probability %g", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Errorf("row %d sums to %g", i, s)
		}
	}
}

func TestCrossEntropyKnownValue(t *testing.T) {
	// Uniform logits over k classes ⇒ loss = ln k.
	k := 5
	logits := tensor.New(1, k)
	loss, grad := SoftmaxCrossEntropy(logits, []int{2})
	if math.Abs(loss-math.Log(float64(k))) > 1e-12 {
		t.Errorf("uniform CE loss = %g, want ln %d", loss, k)
	}
	// Gradient: softmax − onehot = 1/k everywhere except 1/k − 1 at label.
	for j, g := range grad.RowView(0) {
		want := 1.0 / float64(k)
		if j == 2 {
			want -= 1
		}
		if math.Abs(g-want) > 1e-12 {
			t.Errorf("grad[%d] = %g, want %g", j, g, want)
		}
	}
}

func TestCrossEntropyNumericalStability(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{1e4, -1e4, 0}, 1, 3)
	loss, grad := SoftmaxCrossEntropy(logits, []int{0})
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %g with extreme logits", loss)
	}
	for _, g := range grad.Data() {
		if math.IsNaN(g) {
			t.Fatal("NaN gradient with extreme logits")
		}
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.MustFromSlice([]float64{
		2, 1, 0,
		0, 3, 1,
		1, 0, 2,
	}, 3, 3)
	if got := Accuracy(logits, []int{0, 1, 2}); got != 1 {
		t.Errorf("Accuracy = %g, want 1", got)
	}
	if got := Accuracy(logits, []int{1, 1, 1}); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Accuracy = %g, want 1/3", got)
	}
}

func TestReLUBackwardRequiresForward(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "ReLU") {
			t.Error("ReLU Backward without Forward did not panic informatively")
		}
	}()
	NewReLU("r").Backward(tensor.New(2, 2))
}

// TestReLUPassesNaN: ReLU zeroes only inputs <= 0, so a NaN input passes
// through to the loss (as in PyTorch), every other input keeps its exact
// bits, −0 included, and the backward mask stays v > 0.
func TestReLUPassesNaN(t *testing.T) {
	in := []float64{math.NaN(), -1, math.Copysign(0, -1), 2, math.Inf(1)}
	x := tensor.New(1, len(in))
	copy(x.Data(), in)
	r := NewReLU("r")
	got := r.Forward(x, true).Data()
	want := []float64{math.NaN(), 0, 0, 2, math.Inf(1)}
	for i, w := range want {
		if math.Float64bits(got[i]) != math.Float64bits(w) && !(math.IsNaN(got[i]) && math.IsNaN(w)) {
			t.Errorf("ReLU(%g) = %g, want %g", in[i], got[i], w)
		}
	}
	g := tensor.New(1, len(in))
	g.Fill(1)
	if back := r.Backward(g).Data(); back[0] != 0 || back[3] != 1 || back[4] != 1 {
		t.Errorf("ReLU backward mask = %v, want [0 0 0 1 1]", back)
	}

	rng := RandSource(12, 2)
	net := NewSequential(
		NewLinear("fc1", 4, 6, rng),
		NewReLU("relu"),
		NewLinear("fc2", 6, 3, rng),
	)
	batch := randInput(rng, 2, 4)
	batch.Data()[5] = math.NaN()
	if loss := net.Backprop(batch, []int{0, 2}); !math.IsNaN(loss) {
		t.Errorf("loss over a batch with a NaN pixel = %g, want NaN", loss)
	}
}

func TestBatchNormInferenceUsesRunningStats(t *testing.T) {
	rng := RandSource(10, 2)
	bn := NewBatchNorm2D("bn", 2)
	x := randInput(rng, 4, 2, 3, 3)
	// Train a few passes to move running stats.
	for i := 0; i < 20; i++ {
		bn.Forward(x, true)
	}
	out := bn.Forward(x, false)
	// Inference output should be close to the training normalization once
	// running stats converge to batch stats.
	want := bn.Forward(x, true)
	if !out.EqualApprox(want, 0.2) {
		t.Error("inference-mode output far from converged training normalization")
	}
}

func TestLinearFromValidation(t *testing.T) {
	if _, err := NewLinearFrom("x", tensor.New(2), tensor.New(2)); err == nil {
		t.Error("1-D weight accepted")
	}
	if _, err := NewLinearFrom("x", tensor.New(2, 3), tensor.New(3)); err == nil {
		t.Error("mismatched bias accepted")
	}
	l, err := NewLinearFrom("x", tensor.New(2, 3), tensor.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if l.In != 3 || l.Out != 2 {
		t.Errorf("dims = (%d,%d), want (3,2)", l.In, l.Out)
	}
}

// TestLinearFromStoresFirstWeightGradient: NewLinearFrom draws the weight
// gradient unzeroed from the arena, and the first Backward stores into it
// without reading it. A G poisoned with NaN must come out with the same bits
// as a zeroed G that the backward pass adds into, on both of the kernel's
// output-size paths, and a second Backward must add to both alike. Weight
// gradient element (0, 0) sums only −0 products, which a store that began
// from the first product instead of +0 would leave at −0.
func TestLinearFromStoresFirstWeightGradient(t *testing.T) {
	for _, shape := range [][2]int{{5, 7}, {40, 600}} {
		out, in := shape[0], shape[1]
		rng := RandSource(8, uint64(in))
		w, b := randInput(rng, out, in), randInput(rng, out)
		x, gradOut := randInput(rng, 3, in), randInput(rng, 3, out)
		for r := 0; r < 3; r++ {
			x.Data()[r*in] = math.Copysign(0, -1)
			gradOut.Data()[r*out] = 1 + math.Abs(gradOut.Data()[r*out])
		}
		poisoned, err := NewLinearFrom("p", w, b)
		if err != nil {
			t.Fatal(err)
		}
		poisoned.Weight.G.Fill(math.NaN())
		zeroed, err := NewLinearFrom("z", w, b)
		if err != nil {
			t.Fatal(err)
		}
		zeroed.Weight.ZeroGrad()
		zeroed.gradWritten = true // add into the zeroed G
		for step := 0; step < 2; step++ {
			for _, l := range []*Linear{poisoned, zeroed} {
				l.Forward(x, true)
				l.Backward(gradOut)
			}
			for _, pair := range [][2]*Param{{poisoned.Weight, zeroed.Weight}, {poisoned.Bias, zeroed.Bias}} {
				got, want := pair[0].G.Data(), pair[1].G.Data()
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d step %d: %s[%d] = %g, want %g", out, in, step, pair[0].Name, i, got[i], want[i])
					}
				}
			}
		}
		if g := poisoned.Weight.G.Data()[0]; g != 0 || math.Signbit(g) {
			t.Fatalf("%dx%d: gradient of −0 products is %g, want +0", out, in, g)
		}
	}
}

// TestConvRejectsKernelWiderThanPaddedInput: a kernel wider than the padded
// input has no output cell. Forward must panic with a shape message before
// it sizes its workspace, both when the output extent comes out negative
// (two negative extents would multiply into a positive workspace size) and
// when integer division truncates it up to 1 at stride 2.
func TestConvRejectsKernelWiderThanPaddedInput(t *testing.T) {
	for _, c := range []struct{ k, stride int }{{12, 1}, {11, 2}} {
		conv := NewConv2D("c", 1, 2, c.k, c.stride, 1, RandSource(9, 1))
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "exceeds input") {
					t.Errorf("k=%d stride=%d: recovered %v, want a kernel-exceeds-input panic", c.k, c.stride, r)
				}
			}()
			conv.Forward(tensor.New(2, 1, 8, 8), true)
		}()
	}
}
