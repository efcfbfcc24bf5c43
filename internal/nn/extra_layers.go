package nn

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/tensor"
)

// Sigmoid is the logistic activation 1/(1+e^{-x}).
type Sigmoid struct {
	lastOut *tensor.Tensor
	name    string
}

var _ Layer = (*Sigmoid)(nil)

// NewSigmoid constructs a sigmoid activation layer.
func NewSigmoid(name string) *Sigmoid { return &Sigmoid{name: name} }

// Forward applies the logistic function elementwise.
func (s *Sigmoid) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	for i, v := range d {
		d[i] = 1 / (1 + math.Exp(-v))
	}
	if train {
		s.lastOut = out.Clone()
	}
	return out
}

// Backward uses σ'(x) = σ(x)(1−σ(x)).
func (s *Sigmoid) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if s.lastOut == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train)", s.name))
	}
	out := gradOut.Clone()
	d := out.Data()
	y := s.lastOut.Data()
	for i := range d {
		d[i] *= y[i] * (1 - y[i])
	}
	return out
}

// Params returns nil: sigmoid has no parameters.
func (s *Sigmoid) Params() []*Param { return nil }

// Clone returns a fresh sigmoid.
func (s *Sigmoid) Clone() Layer { return NewSigmoid(s.name) }

// Name returns the layer name.
func (s *Sigmoid) Name() string { return s.name }

// Tanh is the hyperbolic-tangent activation.
type Tanh struct {
	lastOut *tensor.Tensor
	name    string
}

var _ Layer = (*Tanh)(nil)

// NewTanh constructs a tanh activation layer.
func NewTanh(name string) *Tanh { return &Tanh{name: name} }

// Forward applies tanh elementwise.
func (t *Tanh) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	d := out.Data()
	for i, v := range d {
		d[i] = math.Tanh(v)
	}
	if train {
		t.lastOut = out.Clone()
	}
	return out
}

// Backward uses tanh'(x) = 1 − tanh²(x).
func (t *Tanh) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if t.lastOut == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train)", t.name))
	}
	out := gradOut.Clone()
	d := out.Data()
	y := t.lastOut.Data()
	for i := range d {
		d[i] *= 1 - y[i]*y[i]
	}
	return out
}

// Params returns nil: tanh has no parameters.
func (t *Tanh) Params() []*Param { return nil }

// Clone returns a fresh tanh.
func (t *Tanh) Clone() Layer { return NewTanh(t.name) }

// Name returns the layer name.
func (t *Tanh) Name() string { return t.name }

// Dropout zeroes activations with probability P during training and scales
// the survivors by 1/(1−P) (inverted dropout), so inference needs no
// rescaling. The mask is drawn from the layer's own generator; pass a seeded
// generator for reproducible training runs.
type Dropout struct {
	P   float64
	Rng *rand.Rand

	mask []bool
	name string
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with drop probability p in [0, 1).
func NewDropout(name string, p float64, rng *rand.Rand) (*Dropout, error) {
	if !(p >= 0 && p < 1) { // also rejects NaN
		return nil, fmt.Errorf("nn: dropout probability %g outside [0,1)", p)
	}
	return &Dropout{P: p, Rng: rng, name: name}, nil
}

// Forward drops units in training mode and is the identity in inference.
func (dr *Dropout) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x.Clone()
	if !train || dr.P == 0 {
		return out
	}
	d := out.Data()
	if cap(dr.mask) < len(d) {
		dr.mask = make([]bool, len(d))
	}
	dr.mask = dr.mask[:len(d)]
	scale := 1 / (1 - dr.P)
	for i := range d {
		keep := dr.Rng.Float64() >= dr.P
		dr.mask[i] = keep
		if keep {
			d[i] *= scale
		} else {
			d[i] = 0
		}
	}
	return out
}

// Backward routes gradients through the surviving units only.
func (dr *Dropout) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	out := gradOut.Clone()
	if dr.P == 0 {
		return out
	}
	d := out.Data()
	if len(dr.mask) != len(d) {
		panic(fmt.Sprintf("nn: %s Backward without matching Forward", dr.name))
	}
	scale := 1 / (1 - dr.P)
	for i := range d {
		if dr.mask[i] {
			d[i] *= scale
		} else {
			d[i] = 0
		}
	}
	return out
}

// Params returns nil: dropout has no parameters.
func (dr *Dropout) Params() []*Param { return nil }

// Clone returns a dropout layer sharing the drop rate and generator.
func (dr *Dropout) Clone() Layer {
	return &Dropout{P: dr.P, Rng: dr.Rng, name: dr.name}
}

// Name returns the layer name.
func (dr *Dropout) Name() string { return dr.name }
