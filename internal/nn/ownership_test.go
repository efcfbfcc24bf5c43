package nn

import (
	"slices"
	"testing"

	"github.com/oasisfl/oasis/internal/tensor"
)

// identity is a layer that returns its argument itself from both passes.
type identity struct{}

func (identity) Forward(x *tensor.Tensor, train bool) *tensor.Tensor { return x }
func (identity) Backward(g *tensor.Tensor) *tensor.Tensor            { return g }
func (identity) Params() []*Param                                    { return nil }
func (identity) Clone() Layer                                        { return identity{} }
func (identity) Name() string                                        { return "identity" }

// tracked wraps a layer and records every tensor its passes return. It
// hides the wrapped layer's parameter-only backward, so Sequential runs its
// full Backward even as a first layer.
type tracked struct {
	Layer
	outs, grads []*tensor.Tensor
}

func (l *tracked) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := l.Layer.Forward(x, train)
	l.outs = append(l.outs, out)
	return out
}

func (l *tracked) Backward(g *tensor.Tensor) *tensor.Tensor {
	dx := l.Layer.Backward(g)
	l.grads = append(l.grads, dx)
	return dx
}

// ownershipCase is a network and an input shape it runs on.
type ownershipCase struct {
	name  string
	net   func() *Sequential
	shape []int
}

func ownershipCases() []ownershipCase {
	rng := RandSource(31, 7)
	return []ownershipCase{
		{"identity layers", func() *Sequential {
			return NewSequential(identity{}, NewLinear("fc1", 4, 6, rng), NewReLU("r"), identity{}, NewLinear("fc2", 6, 3, rng), identity{})
		}, []int{2, 4}},
		{"only identity layers", func() *Sequential {
			return NewSequential(identity{}, identity{})
		}, []int{2, 3}},
		{"residual without projection", func() *Sequential {
			return NewSequential(NewLinear("fc1", 4, 4, rng), NewResidual("res", NewLinear("body", 4, 4, rng), NewReLU("r")), NewLinear("fc2", 4, 3, rng))
		}, []int{2, 4}},
		{"residual without projection first", func() *Sequential {
			return NewSequential(NewResidual("res", NewReLU("r")), NewLinear("fc", 4, 3, rng))
		}, []int{2, 4}},
		{"relu first", func() *Sequential {
			return NewSequential(NewReLU("r"), NewLinear("fc", 4, 3, rng))
		}, []int{2, 4}},
		{"batch norm first", func() *Sequential {
			return NewSequential(NewBatchNorm2D("bn", 2), NewReLU("r"), NewGlobalAvgPool("gap"), NewLinear("fc", 2, 3, rng))
		}, []int{2, 2, 3, 3}},
		{"flatten first", func() *Sequential {
			return NewSequential(NewFlatten("flat"), NewLinear("fc", 18, 3, rng))
		}, []int{2, 2, 3, 3}},
	}
}

// randomTensor returns a tensor of the given shape with values in [-1, 1).
func randomTensor(seed uint64, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	rng := RandSource(seed, 1)
	for i := range t.Data() {
		t.Data()[i] = 2*rng.Float64() - 1
	}
	return t
}

// requireIntact fails unless t still has the shape and data it had when want
// was copied from it.
func requireIntact(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !slices.Equal(got.Shape(), want.Shape()) || !slices.Equal(got.Data(), want.Data()) {
		t.Fatalf("%s changed: shape %v data %v, want shape %v data %v", what, got.Shape(), got.Data(), want.Shape(), want.Data())
	}
}

// TestSequentialKeepsCallerTensors pins the ownership contract of
// Sequential.Forward and Backward: they release the intermediates they
// create, but never the caller's input, the gradOut they were given, or the
// output they returned, whichever layers return their own argument.
// A second pass on other tensors churns the arena between the checks, so a
// wrongly released tensor would have been overwritten.
func TestSequentialKeepsCallerTensors(t *testing.T) {
	for _, c := range ownershipCases() {
		t.Run(c.name, func(t *testing.T) {
			net := c.net()
			x := randomTensor(1, c.shape...)
			xWant := x.Clone()
			out := net.Forward(x, true)
			outWant := out.Clone()
			g := randomTensor(2, out.Shape()...)
			gWant := g.Clone()
			net.Backward(g)

			x2 := randomTensor(3, c.shape...)
			out2 := net.Forward(x2, true)
			net.Backward(randomTensor(4, out2.Shape()...))

			requireIntact(t, "input", x, xWant)
			requireIntact(t, "output", out, outWant)
			requireIntact(t, "gradOut", g, gWant)
		})
	}
}

// TestSequentialReleasesIntermediates checks the other half of the
// contract: every tensor a layer returned goes back to the arena, except the
// network's output, its input and the caller's gradOut.
func TestSequentialReleasesIntermediates(t *testing.T) {
	rng := RandSource(5, 5)
	layers := []*tracked{
		{Layer: NewLinear("fc1", 4, 6, rng)},
		{Layer: NewReLU("r1")},
		{Layer: identity{}},
		{Layer: NewResidual("res", NewReLU("r2"))},
		{Layer: NewLinear("fc2", 6, 3, rng)},
	}
	net := NewSequential()
	for _, l := range layers {
		net.Layers = append(net.Layers, l)
	}
	x := randomTensor(1, 2, 4)
	out := net.Forward(x, true)
	g := randomTensor(2, out.Shape()...)
	net.Backward(g)
	released := func(tt *tensor.Tensor) bool { return tt.Data() == nil }
	for i, l := range layers {
		for _, o := range l.outs {
			if keep := o == out || o == x; keep == released(o) {
				t.Errorf("layer %d output: released %v, want %v", i, released(o), !keep)
			}
		}
		for _, dx := range l.grads {
			if keep := dx == g; keep == released(dx) {
				t.Errorf("layer %d input gradient: released %v, want %v", i, released(dx), !keep)
			}
		}
	}
	if released(out) || released(x) || released(g) {
		t.Fatal("Sequential released a caller's tensor")
	}
}
