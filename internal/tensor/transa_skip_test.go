package tensor

import (
	"fmt"
	"math"
	mrand "math/rand"
	rand "math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/oasisfl/oasis/internal/obs"
)

// Tests for the zero-term skip on MatMulTransAInto's panel path: each output
// row folds only the terms whose coefficient a[kk,i] is nonzero, unless the
// packed panel of b holds an Inf or NaN. ref.go's matMulTransARef skips the
// same terms with its av == 0 branch, so on finite operands the two agree bit
// for bit; denseTransA below takes every product, so it is the oracle once b
// is non-finite.

// reluGate zeroes the coefficients of g (k samples × m neurons, the transA
// layout) the way a ReLU gates an imprint layer's output gradient: each
// neuron is silent for every sample with probability pDead, and otherwise
// for each sample with probability pZero. A quarter of the zeros are −0, as
// a negative upstream gradient times a zero mask leaves.
func reluGate(g *Tensor, rng *rand.Rand, pDead, pZero float64) {
	k, m := g.shape[0], g.shape[1]
	for i := 0; i < m; i++ {
		dead := rng.Float64() < pDead
		for kk := 0; kk < k; kk++ {
			if dead || rng.Float64() < pZero {
				g.data[kk*m+i] = 0
				if rng.IntN(4) == 0 {
					g.data[kk*m+i] = math.Copysign(0, -1)
				}
			}
		}
	}
}

// denseTransA is aᵀ·b as a plain triple loop that takes every product, the
// zero coefficients' included: each sum starts at +0 and adds its k products
// in ascending order, so a zero coefficient meeting an Inf or NaN in b makes
// the sum NaN.
func denseTransA(a, b *Tensor) *Tensor {
	k, m, n := a.shape[0], a.shape[1], b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for kk := 0; kk < k; kk++ {
				s += a.data[kk*m+i] * b.data[kk*n+j]
			}
			out.data[i*n+j] = s
		}
	}
	return out
}

// mustSameFloats fails unless got and want agree element by element: both
// NaN (the vector lanes and the scalar loop may propagate different NaN
// payloads), or the same bits.
func mustSameFloats(t *testing.T, op string, got, want *Tensor) {
	t.Helper()
	for i, w := range want.data {
		g := got.data[i]
		if math.IsNaN(g) && math.IsNaN(w) {
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d = %x (%g), want %x (%g)", op, i,
				math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// transAInto runs MatMulTransAInto on a copy of dst and returns the copy.
func transAInto(dst, a, b *Tensor, add bool) *Tensor {
	out := dst.ClonePooled()
	MatMulTransAInto(out, a, b, add)
	return out
}

// gateCoverage counts the term-list edges the property test must reach:
// rows whose coefficients are all zero, rows with 1–3 nonzero coefficients
// where k ≥ 4 (no axpy4z step), rows whose nonzero count is above four and
// not a multiple of it (an axpy tail after axpy4 groups), draws with k past
// the stack-held term list, and rows whose zeros are both +0 and −0.
type gateCoverage struct {
	zeroRows, fewTerms, raggedTerms, longK, signedZeros int
}

// tally adds a's rows (columns of the transA layout) to the coverage.
func (c *gateCoverage) tally(a *Tensor) {
	k, m := a.shape[0], a.shape[1]
	if k > maxStackTerms {
		c.longK++
	}
	for i := 0; i < m; i++ {
		nz, pos, neg := 0, 0, 0
		for kk := 0; kk < k; kk++ {
			switch v := a.data[kk*m+i]; {
			case v != 0:
				nz++
			case math.Signbit(v):
				neg++
			default:
				pos++
			}
		}
		switch {
		case nz == 0:
			c.zeroRows++
		case nz < 4 && k >= 4:
			c.fewTerms++
		case nz > 4 && nz%4 != 0:
			c.raggedTerms++
		}
		if pos > 0 && neg > 0 {
			c.signedZeros++
		}
	}
}

// TestMatMulTransASkipsZeroTermsProperty draws ReLU-gated coefficients on
// MatMulTransAInto's panel path and checks both modes bit for bit against
// ref.go, which skips the same zero terms, at worker counts 1, 2 and NumCPU
// with the AVX2 kernels on and forced off. The store goes into a NaN-filled
// dst, which it must never read; the add goes into a dst of −0, which an
// element whose sum is +0 must turn into +0, as AddInPlace of ref.go's
// product does.
func TestMatMulTransASkipsZeroTermsProperty(t *testing.T) {
	var cov gateCoverage
	draws := 40
	if testing.Short() {
		draws = 16
	}
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 97))
		m := 1 + rng.IntN(48)
		var k int
		switch rng.IntN(4) {
		case 0:
			k = 1 + rng.IntN(3)
		case 1:
			k = 4 + rng.IntN(12)
		case 2:
			k = 16 + rng.IntN(maxStackTerms-15)
		default:
			k = maxStackTerms + 1 + rng.IntN(60)
		}
		n := transASmallOut/m + 1 + rng.IntN(mulColBlock+40) // panel path
		a, b := New(k, m), New(k, n)
		a.FillRandn(rng, 1)
		reluGate(a, rng, 0.3*rng.Float64(), 0.9*rng.Float64())
		fillMixed(b, rng)
		cov.tally(a)
		want := matMulTransARef(a, b)
		nan, negZero := New(m, n), New(m, n)
		nan.Fill(math.NaN())
		negZero.Fill(math.Copysign(0, -1))
		wantAdd := negZero.Clone().AddInPlace(want)
		withKernelModes(t, func(t *testing.T, avx2 bool) {
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				prev := SetWorkers(w)
				op := fmt.Sprintf("seed %#x: %dx%dx%d workers=%d avx2=%v", seed, m, k, n, w, avx2)
				store, add := transAInto(nan, a, b, false), transAInto(negZero, a, b, true)
				mustBitIdentical(t, op+" store", store, want)
				mustBitIdentical(t, op+" add", add, wantAdd)
				store.Release()
				add.Release()
				SetWorkers(prev)
			}
		})
		return true
	}
	cfg := &quick.Config{MaxCount: draws, Rand: mrand.New(mrand.NewSource(101))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if cov.zeroRows == 0 || cov.fewTerms == 0 || cov.raggedTerms == 0 || cov.longK == 0 || cov.signedZeros == 0 {
		t.Fatalf("draws missed a term-list edge: %+v", cov)
	}
}

// TestMatMulTransANonFiniteKeepsTerms: a panel of b holding an Inf or NaN
// keeps every term, so a zero coefficient meeting it makes the sum NaN, as
// the dense loop does; ref.go's skip would leave it finite. The three column
// panels hold an Inf, nothing and a NaN, so the middle one still skips.
func TestMatMulTransANonFiniteKeepsTerms(t *testing.T) {
	rng := rand.New(rand.NewPCG(103, 107))
	m, k, n := 24, 12, 2*mulColBlock+36
	a, b := New(k, m), New(k, n)
	a.FillRandn(rng, 1)
	reluGate(a, rng, 0.25, 0.5)
	b.FillRandn(rng, 1)
	b.data[3*n+5] = math.Inf(1)
	b.data[7*n+2*mulColBlock+1] = math.NaN()
	b.data[10*n+2*mulColBlock+30] = math.Inf(-1)
	want := denseTransA(a, b)
	skipped := matMulTransARef(a, b)
	differs := 0
	for i, v := range want.data {
		if math.IsNaN(v) && !math.IsNaN(skipped.data[i]) {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("no zero coefficient meets a non-finite b: the case tests nothing")
	}
	dst := New(m, n)
	dst.FillRandn(rng, 1)
	wantAdd := dst.Clone().AddInPlace(want)
	nan := New(m, n)
	nan.Fill(math.NaN())
	withKernelModes(t, func(t *testing.T, avx2 bool) {
		for _, w := range []int{1, 2, runtime.NumCPU()} {
			prev := SetWorkers(w)
			op := fmt.Sprintf("workers=%d avx2=%v", w, avx2)
			store, add := transAInto(nan, a, b, false), transAInto(dst, a, b, true)
			mustSameFloats(t, op+" store", store, want)
			mustSameFloats(t, op+" add", add, wantAdd)
			store.Release()
			add.Release()
			SetWorkers(prev)
		}
	})
}

// TestMatMulTransATermCounters fixes the coefficients' zeros and requires
// the exact counts: every call adds its k·m·n terms, and the panel path adds
// each zero coefficient's terms to the skipped count once per column of a
// finite panel, on any worker count. The small-output path skips nothing.
func TestMatMulTransATermCounters(t *testing.T) {
	m, k, n := 32, 8, mulColBlock+88 // panel path, two column panels
	a, b := New(k, m), New(k, n)
	zeros := 0
	for kk := 0; kk < k; kk++ {
		for i := 0; i < m; i++ {
			if (kk+i)%3 != 0 {
				a.data[kk*m+i] = float64(1 + kk + i)
			} else {
				zeros++
			}
		}
	}
	for j := range b.data {
		b.data[j] = float64(j%7) - 3
	}
	small := New(k, 16)
	count := func(a, b *Tensor) (terms, skipped int64) {
		t.Helper()
		if _, err := obs.Enable(obs.Config{Program: "tensor-test"}); err != nil {
			t.Fatal(err)
		}
		defer obs.Disable()
		MatMulTransA(a, b).Release()
		return obsTransATerms.Value(), obsTransASkipped.Value()
	}
	for _, w := range []int{1, runtime.NumCPU()} {
		prev := SetWorkers(w)
		terms, skipped := count(a, b)
		if want := int64(k * m * n); terms != want || skipped != int64(zeros*n) {
			t.Errorf("workers=%d: %d terms, %d skipped; want %d, %d", w, terms, skipped, want, zeros*n)
		}
		b.data[2*n+mulColBlock+3] = math.Inf(1) // the second panel keeps every term
		if _, skipped := count(a, b); skipped != int64(zeros*mulColBlock) {
			t.Errorf("workers=%d with an Inf in panel 2: %d skipped, want %d", w, skipped, zeros*mulColBlock)
		}
		b.data[2*n+mulColBlock+3] = 0
		if terms, skipped := count(a, small); terms != int64(k*m*16) || skipped != 0 {
			t.Errorf("workers=%d small output: %d terms, %d skipped; want %d, 0", w, terms, skipped, k*m*16)
		}
		SetWorkers(prev)
	}
}

// FuzzMatMulTransAInto: for any m, k and n up to 80, zero density, seed and
// mode, MatMulTransAInto matches ref.go bit for bit while b is finite, and
// the dense loop once specials plants an Inf or NaN in b. With wide set, n
// counts columns past the small-output threshold, so the draw takes the
// panel path that skips zero terms.
func FuzzMatMulTransAInto(f *testing.F) {
	f.Add(uint8(24), uint8(12), uint8(40), uint8(128), uint64(1), false, true, uint8(0))
	f.Add(uint8(7), uint8(70), uint8(3), uint8(250), uint64(2), true, true, uint8(1))
	f.Add(uint8(3), uint8(2), uint8(79), uint8(0), uint64(3), true, false, uint8(2))
	f.Add(uint8(60), uint8(5), uint8(9), uint8(200), uint64(4), false, true, uint8(3))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
	f.Fuzz(func(t *testing.T, m8, k8, n8, density uint8, seed uint64, add, wide bool, nonFinite uint8) {
		m, k, n := 1+int(m8)%80, 1+int(k8)%80, 1+int(n8)%80
		if wide {
			n += transASmallOut / m
		}
		rng := rand.New(rand.NewPCG(seed, 109))
		a, b := New(k, m), New(k, n)
		a.FillRandn(rng, 1)
		reluGate(a, rng, float64(density)/512, float64(density)/255)
		b.FillRandn(rng, 1)
		for range nonFinite % 4 {
			b.data[rng.IntN(len(b.data))] = specials[rng.IntN(len(specials))]
		}
		want := matMulTransARef(a, b)
		if nonFinite%4 != 0 {
			want = denseTransA(a, b)
		}
		dst := New(m, n)
		if add {
			fillMixed(dst, rng)
			want = dst.Clone().AddInPlace(want)
		} else {
			dst.Fill(math.NaN())
		}
		same := mustBitIdentical
		if nonFinite%4 != 0 {
			same = mustSameFloats
		}
		withKernelModes(t, func(t *testing.T, avx2 bool) {
			got := transAInto(dst, a, b, add)
			same(t, fmt.Sprintf("%dx%dx%d add=%v avx2=%v", m, k, n, add, avx2), got, want)
			got.Release()
		})
	})
}
