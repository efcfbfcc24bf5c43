package nn

import (
	"testing"
	"testing/quick"

	"github.com/oasisfl/oasis/internal/tensor"
)

// TestLinearAffineProperty: a Linear layer is affine, so
// f(x+y) = f(x) + f(y) − f(0) for any inputs.
func TestLinearAffineProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := RandSource(seed, 101)
		in := 2 + int(seed%6)
		out := 1 + int((seed>>3)%5)
		l := NewLinear("fc", in, out, rng)
		x := randInput(rng, 2, in)
		y := randInput(rng, 2, in)
		zero := tensor.New(2, in)
		lhs := l.Forward(x.Add(y), false)
		rhs := l.Forward(x, false).Add(l.Forward(y, false)).Sub(l.Forward(zero, false))
		return lhs.EqualApprox(rhs, 1e-9)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// TestConvTranslationStructure: convolution with zero padding commutes with
// batch concatenation — each batch element is processed independently.
func TestConvBatchIndependenceProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := RandSource(seed, 103)
		c := NewConv2D("c", 1, 2, 3, 1, 1, rng)
		a := randInput(rng, 1, 1, 5, 5)
		b := randInput(rng, 1, 1, 5, 5)
		both := tensor.New(2, 1, 5, 5)
		copy(both.Data()[:25], a.Data())
		copy(both.Data()[25:], b.Data())
		outBoth := c.Forward(both, false)
		outA := c.Forward(a, false)
		outB := c.Forward(b, false)
		half := outBoth.Len() / 2
		for i := 0; i < half; i++ {
			if diff := outBoth.Data()[i] - outA.Data()[i]; diff > 1e-12 || diff < -1e-12 {
				return false
			}
			if diff := outBoth.Data()[half+i] - outB.Data()[i]; diff > 1e-12 || diff < -1e-12 {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 15})
	if err != nil {
		t.Error(err)
	}
}

// TestReLUIdempotentProperty: ReLU∘ReLU = ReLU.
func TestReLUIdempotentProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		rng := RandSource(seed, 105)
		r := NewReLU("r")
		x := randInput(rng, 3, 7)
		once := r.Forward(x, false)
		twice := r.Forward(once, false)
		return once.EqualApprox(twice, 0)
	}, &quick.Config{MaxCount: 20})
	if err != nil {
		t.Error(err)
	}
}

// TestGradResNetLiteFull is the integration gradient check: the full
// residual classifier (every layer type composed) against finite
// differences on a tiny instance.
func TestGradResNetLiteFull(t *testing.T) {
	rng := RandSource(55, 1)
	net := NewResNetLite(ResNetLiteConfig{InChannels: 1, NumClasses: 3, Width: 2}, rng)
	x := randInput(rng, 2, 1, 8, 8)
	res, err := CheckGradients(net, x, []int{0, 2}, 1e-5)
	if err != nil {
		t.Fatalf("full ResNet-lite gradient check: %v", err)
	}
	if res.MaxRelErr > 1e-4 {
		t.Fatalf("max rel err %.2e at %s", res.MaxRelErr, res.Param)
	}
}
