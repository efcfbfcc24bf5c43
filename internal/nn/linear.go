package nn

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/tensor"
)

// Linear is a fully-connected layer y = x·Wᵀ + b with x of shape [B, in],
// W of shape [out, in] and b of shape [out].
//
// The malicious layers planted by the RTF and CAH attacks are instances of
// this type whose weights the (dishonest) server chooses directly.
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param

	lastX *tensor.Tensor
	name  string
	// gradWritten is set once a Backward has written Weight.G; until then
	// backwardParams stores ∂L/∂W instead of adding it, so G needs no zero
	// fill before its first use.
	gradWritten bool
}

var _ Layer = (*Linear)(nil)

// NewLinear constructs a fully-connected layer with He-initialized weights
// and zero biases.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	w := tensor.New(out, in)
	w.FillRandn(rng, heStd(in))
	b := tensor.New(out)
	return &Linear{
		In: in, Out: out,
		Weight: &Param{Name: name + ".weight", W: w, G: tensor.New(out, in)},
		Bias:   &Param{Name: name + ".bias", W: b, G: tensor.New(out)},
		name:   name,
	}
}

// NewLinearFrom constructs a fully-connected layer with explicit weights and
// biases; used by the attacks to plant malicious parameters and by model
// decoding. The layer adopts w and b as its parameters without copying them,
// so the caller must not change them while the layer is in use, and the
// layer does not change them unless its owner trains it. The gradients come
// from the tensor arena: the bias gradient starts at zero, and the weight
// gradient holds no value until the first Backward writes it (or ZeroGrad
// clears it). An owner done with the layer may Release the gradients, and
// one that never does leaves them to the collector.
func NewLinearFrom(name string, w *tensor.Tensor, b *tensor.Tensor) (*Linear, error) {
	if w.Dims() != 2 {
		return nil, fmt.Errorf("nn: linear weight must be 2-D, got %v", w.Shape())
	}
	out, in := w.Dim(0), w.Dim(1)
	if b.Dims() != 1 || b.Dim(0) != out {
		return nil, fmt.Errorf("nn: linear bias shape %v does not match weight %v", b.Shape(), w.Shape())
	}
	return &Linear{
		In: in, Out: out,
		Weight: &Param{Name: name + ".weight", W: w, G: tensor.NewPooledRaw(out, in)},
		Bias:   &Param{Name: name + ".bias", W: b, G: tensor.NewPooled(out)},
		name:   name,
	}, nil
}

// Forward computes x·Wᵀ + b.
func (l *Linear) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 2 || x.Dim(1) != l.In {
		panic(fmt.Sprintf("nn: %s expects [B,%d], got %v", l.name, l.In, x.Shape()))
	}
	if train {
		// The cached activation comes from the workspace arena and is
		// released by Backward; recycle any orphan from a repeated Forward.
		l.lastX.Release()
		l.lastX = x.ClonePooled()
	}
	out := tensor.MatMulTransB(x, l.Weight.W) // [B,out]
	b := l.Bias.W.Data()
	for i := 0; i < out.Dim(0); i++ {
		row := out.RowView(i)
		for j := range row {
			row[j] += b[j]
		}
	}
	return out
}

// Backward accumulates ∂L/∂W = gᵀ·x and ∂L/∂b = Σ_B g, returning ∂L/∂x = g·W.
func (l *Linear) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	l.backwardParams(gradOut)
	return tensor.MatMul(gradOut, l.Weight.W) // [B,in]
}

// backwardParams is Backward without the input gradient: it accumulates
// ∂L/∂W and ∂L/∂b and releases the cached activation. The first call stores
// ∂L/∂W into G, which is bit-identical to adding it into a zeroed G (see
// tensor.MatMulTransAInto); the bias keeps its add loop, because a sum
// started from the first row instead of +0 could end at −0.
func (l *Linear) backwardParams(gradOut *tensor.Tensor) {
	if l.lastX == nil {
		panic(fmt.Sprintf("nn: %s Backward called before Forward(train)", l.name))
	}
	// ∂L/∂W (out×in) += gradOutᵀ (out×B) · x (B×in)
	tensor.MatMulTransAInto(l.Weight.G, gradOut, l.lastX, l.gradWritten)
	l.gradWritten = true
	l.lastX.Release()
	l.lastX = nil
	gb := l.Bias.G.Data()
	for i := 0; i < gradOut.Dim(0); i++ {
		row := gradOut.RowView(i)
		for j := range row {
			gb[j] += row[j]
		}
	}
}

// Params returns weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// Clone returns a deep copy with zeroed gradients.
func (l *Linear) Clone() Layer {
	c, err := NewLinearFrom(l.name, l.Weight.W.ClonePooled(), l.Bias.W.ClonePooled())
	if err != nil {
		panic(err) // unreachable: shapes come from a valid layer
	}
	c.Weight.G.Zero()
	return c
}

// Name returns the layer name.
func (l *Linear) Name() string { return l.name }
