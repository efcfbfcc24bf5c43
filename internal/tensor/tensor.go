package tensor

import (
	"fmt"
	"math"
	rand "math/rand/v2"
)

// Tensor is a dense row-major float64 array with an explicit shape.
// The zero value is an empty scalar-less tensor; use New or FromSlice.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. Every dimension must
// be positive.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// FromSlice wraps a copy of data in a tensor of the given shape. The length
// of data must equal the product of the dimensions.
func FromSlice(data []float64, shape ...int) (*Tensor, error) {
	n := checkShape(shape)
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (want %d)", len(data), shape, n)
	}
	t := New(shape...)
	copy(t.data, data)
	return t, nil
}

// MustFromSlice is FromSlice for static literals in tests and examples; it
// panics on length mismatch.
func MustFromSlice(data []float64, shape ...int) *Tensor {
	t, err := FromSlice(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n, err := numElems(shape)
	if err != nil {
		panic("tensor: " + err.Error())
	}
	return n
}

// numElems returns the element count of a non-empty shape. It rejects a
// non-positive dimension and a product that overflows int: a wrapped count
// would let a shape disagree with its data, and the kernels trust
// len(data) == product(shape).
func numElems(shape []int) (int, error) {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("non-positive dimension in shape %v", shape)
		}
		if n > math.MaxInt/d {
			return 0, fmt.Errorf("element count of shape %v overflows int", shape)
		}
		n *= d
	}
	return n, nil
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the backing slice. Mutating it mutates the tensor; callers
// that need isolation should Clone first.
func (t *Tensor) Data() []float64 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.shape...)
	copy(c.data, t.data)
	return c
}

// Reshape returns a view sharing t's backing data with a new shape of equal
// element count.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := checkShape(shape)
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elems) to %v (%d elems)", t.shape, len(t.data), shape, n)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// MustReshape is Reshape that panics on size mismatch; for internal use where
// shapes are statically known.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// Zero sets every element to +0. It uses clear, which compiles to memclr;
// Fill's element loop does not.
func (t *Tensor) Zero() { clear(t.data) }

// FillRandn fills the tensor with N(0, std²) samples from rng.
func (t *Tensor) FillRandn(rng *rand.Rand, std float64) {
	for i := range t.data {
		t.data[i] = rng.NormFloat64() * std
	}
}

// Add returns t + o elementwise.
func (t *Tensor) Add(o *Tensor) *Tensor {
	t.mustMatch(o, "Add")
	r := t.Clone()
	for i, v := range o.data {
		r.data[i] += v
	}
	return r
}

// AddInPlace adds o into t and returns t.
func (t *Tensor) AddInPlace(o *Tensor) *Tensor {
	t.mustMatch(o, "AddInPlace")
	addTo(t.data, o.data)
	return t
}

// AddScaledInPlace adds s*o into t and returns t.
func (t *Tensor) AddScaledInPlace(s float64, o *Tensor) *Tensor {
	t.mustMatch(o, "AddScaledInPlace")
	axpy(t.data, s, o.data)
	return t
}

// Sub returns t - o elementwise.
func (t *Tensor) Sub(o *Tensor) *Tensor {
	t.mustMatch(o, "Sub")
	r := t.Clone()
	for i, v := range o.data {
		r.data[i] -= v
	}
	return r
}

// Scale returns s * t.
func (t *Tensor) Scale(s float64) *Tensor {
	r := t.Clone()
	for i := range r.data {
		r.data[i] *= s
	}
	return r
}

// ScaleInPlace multiplies every element by s and returns t.
func (t *Tensor) ScaleInPlace(s float64) *Tensor {
	for i := range t.data {
		t.data[i] *= s
	}
	return t
}

func (t *Tensor) mustMatch(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.shape, o.shape))
	}
}

// Sum returns the sum of all elements.
func (t *Tensor) Sum() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.data)) }

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// EqualApprox reports whether t and o have the same shape and every element
// differs by at most tol.
func (t *Tensor) EqualApprox(o *Tensor, tol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i := range t.data {
		if math.Abs(t.data[i]-o.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders a compact description for debugging.
func (t *Tensor) String() string {
	if len(t.data) <= 8 {
		return fmt.Sprintf("Tensor%v%v", t.shape, t.data)
	}
	return fmt.Sprintf("Tensor%v[%.4g %.4g ... %.4g]", t.shape, t.data[0], t.data[1], t.data[len(t.data)-1])
}
