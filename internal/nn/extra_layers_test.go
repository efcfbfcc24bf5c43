package nn

import (
	"math"
	"testing"

	"github.com/oasisfl/oasis/internal/tensor"
)

func TestGradSigmoid(t *testing.T) {
	rng := RandSource(20, 1)
	net := NewSequential(
		NewLinear("fc1", 4, 6, rng),
		NewSigmoid("sig"),
		NewLinear("fc2", 6, 3, rng),
	)
	checkNet(t, net, SoftmaxCrossEntropy{}, randInput(rng, 3, 4), []int{0, 1, 2})
}

func TestGradTanh(t *testing.T) {
	rng := RandSource(21, 1)
	net := NewSequential(
		NewLinear("fc1", 4, 6, rng),
		NewTanh("tanh"),
		NewLinear("fc2", 6, 3, rng),
	)
	checkNet(t, net, SoftmaxCrossEntropy{}, randInput(rng, 3, 4), []int{2, 0, 1})
}

func TestSigmoidRange(t *testing.T) {
	s := NewSigmoid("s")
	x := tensor.MustFromSlice([]float64{-100, 0, 100}, 3)
	out := s.Forward(x, false)
	d := out.Data()
	if d[0] > 1e-6 || math.Abs(d[1]-0.5) > 1e-12 || d[2] < 1-1e-6 {
		t.Errorf("sigmoid values %v", d)
	}
}

func TestTanhOddSymmetry(t *testing.T) {
	th := NewTanh("t")
	x := tensor.MustFromSlice([]float64{-2, -1, 0, 1, 2}, 5)
	out := th.Forward(x, false).Data()
	if out[2] != 0 {
		t.Errorf("tanh(0) = %g", out[2])
	}
	if math.Abs(out[0]+out[4]) > 1e-12 || math.Abs(out[1]+out[3]) > 1e-12 {
		t.Errorf("tanh not odd: %v", out)
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := RandSource(22, 1)
	dr, err := NewDropout("d", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 4, 10)
	out := dr.Forward(x, false)
	if !out.EqualApprox(x, 0) {
		t.Error("dropout altered inference output")
	}
}

func TestDropoutTrainingDropsAndScales(t *testing.T) {
	rng := RandSource(23, 1)
	dr, err := NewDropout("d", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 10000)
	x.Fill(1)
	out := dr.Forward(x, true)
	zeros, scaled := 0, 0
	for _, v := range out.Data() {
		switch v {
		case 0:
			zeros++
		case 2: // survivor scaled by 1/(1−0.5)
			scaled++
		default:
			t.Fatalf("unexpected dropout output %g", v)
		}
	}
	if zeros < 4500 || zeros > 5500 {
		t.Errorf("dropped %d of 10000 at p=0.5", zeros)
	}
	// Inverted dropout keeps the expectation: mean ≈ 1.
	if m := out.Mean(); math.Abs(m-1) > 0.05 {
		t.Errorf("dropout mean %g, want ≈ 1", m)
	}
	if zeros+scaled != 10000 {
		t.Error("mask accounting broken")
	}
}

func TestDropoutBackwardMatchesMask(t *testing.T) {
	rng := RandSource(24, 1)
	dr, err := NewDropout("d", 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 100)
	x.Fill(1)
	out := dr.Forward(x, true)
	g := tensor.New(1, 100)
	g.Fill(1)
	back := dr.Backward(g)
	for i := range out.Data() {
		fwdZero := out.Data()[i] == 0
		bwdZero := back.Data()[i] == 0
		if fwdZero != bwdZero {
			t.Fatal("backward mask does not match forward mask")
		}
	}
}

func TestDropoutValidation(t *testing.T) {
	rng := RandSource(25, 1)
	if _, err := NewDropout("d", 1.0, rng); err == nil {
		t.Error("p=1 accepted")
	}
	if _, err := NewDropout("d", -0.1, rng); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := NewDropout("d", math.NaN(), rng); err == nil {
		t.Error("NaN p accepted")
	}
}

func TestDropoutZeroProbIsNoop(t *testing.T) {
	rng := RandSource(26, 1)
	dr, err := NewDropout("d", 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 8)
	if !dr.Forward(x, true).EqualApprox(x, 0) {
		t.Error("p=0 dropout altered training output")
	}
}

// TestDropoutGradCheckFixedMask verifies the backward pass against finite
// differences with the mask held fixed (the function is only differentiable
// per-mask).
func TestDropoutGradCheckFixedMask(t *testing.T) {
	rng := RandSource(27, 1)
	dr, err := NewDropout("d", 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 1, 12)
	out := dr.Forward(x, true) // fixes the mask
	// Loss = sum(out); analytic input gradient is the scaled mask.
	g := tensor.New(1, 12)
	g.Fill(1)
	back := dr.Backward(g)
	for i := range out.Data() {
		want := 0.0
		if out.Data()[i] != 0 {
			want = 1 / (1 - dr.P)
		}
		if math.Abs(back.Data()[i]-want) > 1e-12 {
			t.Fatalf("dropout grad[%d] = %g, want %g", i, back.Data()[i], want)
		}
	}
}
