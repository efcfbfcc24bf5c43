package nn

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/tensor"
)

// ReLU is the rectified linear activation max(0, x). The gradient-inversion
// attacks in this repository rely on the ReLU activation pattern of the
// malicious layer (paper §III-A, Eq. 6).
type ReLU struct {
	mask []bool
	name string
}

var _ Layer = (*ReLU)(nil)

// NewReLU constructs a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Forward clamps negatives to zero, recording the activation mask. A NaN
// input passes through, as in PyTorch, so it reaches the loss; its gradient
// is masked like a negative's. The output comes from the tensor arena.
func (r *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.ClonePooled()
	d := out.Data()
	if train {
		if cap(r.mask) < len(d) {
			r.mask = make([]bool, len(d))
		}
		r.mask = r.mask[:len(d)]
	}
	for i, v := range d {
		if v <= 0 {
			d[i] = 0
		}
		if train {
			r.mask[i] = v > 0
		}
	}
	return out
}

// Backward zeroes the gradient where the input was non-positive.
func (r *ReLU) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	out := gradOut.ClonePooled()
	d := out.Data()
	if len(r.mask) != len(d) {
		panic("nn: ReLU Backward without matching Forward")
	}
	for i := range d {
		if !r.mask[i] {
			d[i] = 0
		}
	}
	return out
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Clone returns a fresh ReLU.
func (r *ReLU) Clone() Layer { return NewReLU(r.name) }

// Name returns the layer name.
func (r *ReLU) Name() string { return r.name }

// Flatten reshapes [B, ...] activations to [B, prod(...)]. It records the
// input shape so Backward can restore it.
type Flatten struct {
	inShape []int
	name    string
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Forward flattens all trailing dimensions into one, copying x into a
// tensor from the arena.
func (f *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train {
		f.inShape = x.Shape()
	}
	b := x.Dim(0)
	return copyPooled(x, b, x.Len()/b)
}

// Backward restores the original input shape.
func (f *Flatten) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if f.inShape == nil {
		panic("nn: Flatten Backward without Forward")
	}
	return copyPooled(gradOut, f.inShape...)
}

// copyPooled returns a copy of t's elements in the given shape, drawn from
// the arena. A copy, not a Reshape view, so the result is the caller's to
// release independently of t.
func copyPooled(t *tensor.Tensor, shape ...int) *tensor.Tensor {
	out := tensor.NewPooledRaw(shape...)
	if out.Len() != t.Len() {
		panic(fmt.Sprintf("nn: cannot reshape %v to %v", t.Shape(), shape))
	}
	copy(out.Data(), t.Data())
	return out
}

// Params returns nil: Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }

// Clone returns a fresh Flatten.
func (f *Flatten) Clone() Layer { return NewFlatten(f.name) }

// Name returns the layer name.
func (f *Flatten) Name() string { return f.name }
