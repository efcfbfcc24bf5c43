package tensor

import (
	"math"
	rand "math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tt := New(2, 3, 4)
	if got := tt.Len(); got != 24 {
		t.Errorf("Len = %d, want 24", got)
	}
	if got := tt.Dims(); got != 3 {
		t.Errorf("Dims = %d, want 3", got)
	}
	if got := tt.Dim(1); got != 3 {
		t.Errorf("Dim(1) = %d, want 3", got)
	}
	sh := tt.Shape()
	sh[0] = 99 // mutating the copy must not affect the tensor
	if tt.Dim(0) != 2 {
		t.Error("Shape() returned a view instead of a copy")
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}, overflowShape} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	tt, err := FromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := tt.At(1, 2); got != 6 {
		t.Errorf("At(1,2) = %g, want 6", got)
	}
	if _, err := FromSlice([]float64{1, 2}, 3); err == nil {
		t.Error("FromSlice length mismatch did not error")
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(3, 4)
	tt.Set(7.5, 2, 1)
	if got := tt.At(2, 1); got != 7.5 {
		t.Errorf("At = %g, want 7.5", got)
	}
	if got := tt.At(0, 0); got != 0 {
		t.Errorf("untouched element = %g, want 0", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := a.Clone()
	b.Data()[0] = 99
	if a.Data()[0] != 1 {
		t.Error("Clone shares backing data")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4}, 2, 2)
	v, err := a.Reshape(4)
	if err != nil {
		t.Fatal(err)
	}
	v.Data()[0] = 42
	if a.At(0, 0) != 42 {
		t.Error("Reshape did not return a view")
	}
	if _, err := a.Reshape(3); err == nil {
		t.Error("Reshape size mismatch did not error")
	}
}

func TestArithmetic(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3}, 3)
	b := MustFromSlice([]float64{4, 5, 6}, 3)
	if got := a.Add(b).Data(); got[2] != 9 {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a).Data(); got[0] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2).Data(); got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Sum(); got != 6 {
		t.Errorf("Sum = %g", got)
	}
	if got := a.Mean(); got != 2 {
		t.Errorf("Mean = %g", got)
	}
	if got := a.L2Norm(); math.Abs(got-math.Sqrt(14)) > 1e-12 {
		t.Errorf("L2Norm = %g", got)
	}
	// In-place variants.
	c := a.Clone()
	c.AddInPlace(b)
	if c.Data()[0] != 5 {
		t.Errorf("AddInPlace = %v", c.Data())
	}
	c = a.Clone()
	c.AddScaledInPlace(2, b)
	if c.Data()[0] != 9 {
		t.Errorf("AddScaledInPlace = %v", c.Data())
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := New(2, 2)
	b := New(4)
	defer func() {
		if recover() == nil {
			t.Error("Add with mismatched shapes did not panic")
		}
	}()
	a.Add(b)
}

func TestMatMulSmall(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b := MustFromSlice([]float64{7, 8, 9, 10, 11, 12}, 3, 2)
	got := MatMul(a, b)
	want := MustFromSlice([]float64{58, 64, 139, 154}, 2, 2)
	if !got.EqualApprox(want, 1e-12) {
		t.Errorf("MatMul = %v, want %v", got, want)
	}
}

func TestMatMulIdentityProperty(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		n := 1 + int(seed%7)
		a := New(n, n)
		a.FillRandn(r, 1)
		eye := New(n, n)
		for i := 0; i < n; i++ {
			eye.Set(1, i, i)
		}
		return MatMul(a, eye).EqualApprox(a, 1e-12) && MatMul(eye, a).EqualApprox(a, 1e-12)
	}, &quick.Config{MaxCount: 25})
	if err != nil {
		t.Error(err)
	}
}

// transpose2DRef is an element-at-a-time transpose, the operand layout
// change TestMatMulTransVariantsAgree needs.
func transpose2DRef(a *Tensor) *Tensor {
	m, n := a.shape[0], a.shape[1]
	out := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			out.data[j*m+i] = a.data[i*n+j]
		}
	}
	return out
}

func TestMatMulTransVariantsAgree(t *testing.T) {
	err := quick.Check(func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		m, k, n := 1+int(seed%5), 2+int(seed%4), 1+int((seed>>3)%6)
		a := New(m, k)
		a.FillRandn(r, 1)
		b := New(k, n)
		b.FillRandn(r, 1)
		ref := MatMul(a, b)
		viaTransB := MatMulTransB(a, transpose2DRef(b))
		viaTransA := MatMulTransA(transpose2DRef(a), b)
		return ref.EqualApprox(viaTransB, 1e-10) && ref.EqualApprox(viaTransA, 1e-10)
	}, &quick.Config{MaxCount: 40})
	if err != nil {
		t.Error(err)
	}
}

func TestRowOperations(t *testing.T) {
	a := MustFromSlice([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	a.SetRow(0, []float64{7, 8, 9})
	if a.At(0, 2) != 9 {
		t.Errorf("SetRow failed: %v", a.Data())
	}
	view := a.RowView(0)
	view[0] = 100
	if a.At(0, 0) != 100 {
		t.Error("RowView did not return a view")
	}
}

func TestFillHelpers(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := New(1000)
	a.FillRandn(rng, 0.5)
	if m := math.Abs(a.Mean()); m > 0.1 {
		t.Errorf("FillRandn mean = %g, want ≈ 0", m)
	}
	a.Fill(3)
	if a.Sum() != 3000 {
		t.Errorf("Fill: sum = %g", a.Sum())
	}
	a.Zero()
	if a.Sum() != 0 {
		t.Errorf("Zero: sum = %g", a.Sum())
	}
}

func TestEqualApprox(t *testing.T) {
	a := MustFromSlice([]float64{1, 2}, 2)
	b := MustFromSlice([]float64{1, 2.0001}, 2)
	if !a.EqualApprox(b, 1e-3) {
		t.Error("EqualApprox(1e-3) = false")
	}
	if a.EqualApprox(b, 1e-6) {
		t.Error("EqualApprox(1e-6) = true")
	}
	c := MustFromSlice([]float64{1, 2}, 1, 2)
	if a.EqualApprox(c, 1) {
		t.Error("EqualApprox across shapes = true")
	}
}
