package tensor

import (
	"fmt"
	"math"
	mrand "math/rand"
	rand "math/rand/v2"
	"runtime"
	"testing"
	"testing/quick"
)

// Differential suite: the blocked, goroutine-tiled kernels must be
// bit-identical to the retained pre-blocking reference implementations in
// ref.go — over randomized shapes (including ragged tails smaller than every
// block size), with operands containing exact zeros (the refs take their
// sparse-skip branch, the new kernels do not), and across worker counts.
// CI runs this under -race, which also certifies the row-span ownership
// discipline of parallelRows.

// workerCounts are the fan-outs each differential case runs under; results
// must not differ by a single bit between any of them.
func workerCounts() []int {
	return []int{1, 4, runtime.NumCPU()}
}

// withWorkers runs f under each worker count, restoring the previous setting.
func withWorkers(t *testing.T, f func(t *testing.T, workers int)) {
	t.Helper()
	for _, w := range workerCounts() {
		prev := SetWorkers(w)
		f(t, w)
		SetWorkers(prev)
	}
}

// fillMixed fills t with Gaussian values, then plants exact zeros (and a few
// negative zeros) so the reference kernels' av == 0 branches actually fire.
func fillMixed(t *Tensor, rng *rand.Rand) {
	t.FillRandn(rng, 1)
	for i := range t.data {
		switch rng.IntN(16) {
		case 0:
			t.data[i] = 0
		case 1:
			t.data[i] = math.Copysign(0, -1)
		}
	}
}

// mustBitIdentical fails unless got and want agree in shape and every
// element's exact bit pattern.
func mustBitIdentical(t *testing.T, op string, got, want *Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v != reference %v", op, got.shape, want.shape)
	}
	for i := range want.data {
		if math.Float64bits(got.data[i]) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: element %d = %x (%g), reference %x (%g)",
				op, i, math.Float64bits(got.data[i]), got.data[i],
				math.Float64bits(want.data[i]), want.data[i])
		}
	}
}

// differentialShapes covers the blocking edge cases: dimensions of 1, sizes
// straddling transBRowBlock, mulColBlock and the dot unroll
// width, plus ragged tails and an odd row count (the dot2 pairing tail).
func differentialShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1},
		{1, 5, 3},
		{3, 4, 1},
		{7, 9, 5},               // everything smaller than every block
		{8, 33, transBRowBlock}, // ragged k tail for the 4-way dot unroll
		{5, 64, transBRowBlock + 1},
		{transBRowBlock + 3, 17, 2*transBRowBlock - 1},
		{2, mulColBlock + 7, 3},
		{3, 130, mulColBlock + 9}, // n straddling the packed panel width
		{33, 8, 69},
		{63, 31, 65}, // odd m: dot2 pairing leaves a tail row
	}
	// A few fully random shapes for luck.
	for i := 0; i < 4; i++ {
		shapes = append(shapes, [3]int{1 + rng.IntN(70), 1 + rng.IntN(600), 1 + rng.IntN(550)})
	}
	return shapes
}

func TestMatMulBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, sh := range differentialShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		fillMixed(a, rng)
		b := New(k, n)
		fillMixed(b, rng)
		want := matMulRef(a, b)
		withWorkers(t, func(t *testing.T, w int) {
			mustBitIdentical(t, fmt.Sprintf("MatMul %dx%dx%d workers=%d", m, k, n, w), MatMul(a, b), want)
		})
	}
}

func TestMatMulTransBBitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for _, sh := range differentialShapes(rng) {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k)
		fillMixed(a, rng)
		b := New(n, k)
		fillMixed(b, rng)
		want := matMulTransBRef(a, b)
		withWorkers(t, func(t *testing.T, w int) {
			mustBitIdentical(t, fmt.Sprintf("MatMulTransB %dx%dx%d workers=%d", m, k, n, w), MatMulTransB(a, b), want)
		})
	}
}

func TestMatMulTransABitIdenticalToReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	shapes := differentialShapes(rng)
	// Force both TransA regimes: a small output (kk-outer path) with large k,
	// and an output big enough for the packed-panel path.
	shapes = append(shapes, [3]int{24, 2048, 96}, [3]int{300, 40, 400})
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(k, m) // transA layout
		fillMixed(a, rng)
		b := New(k, n)
		fillMixed(b, rng)
		want := matMulTransARef(a, b)
		withWorkers(t, func(t *testing.T, w int) {
			mustBitIdentical(t, fmt.Sprintf("MatMulTransA %dx%dx%d workers=%d", m, k, n, w), MatMulTransA(a, b), want)
		})
	}
}

// TestConvOutMatchesUnfusedPath checks the fused matmul+rearrange+bias kernel
// against the historical three-step lowering, bit for bit.
func TestConvOutMatchesUnfusedPath(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	cases := []struct{ b, c, h, w, outC, k, stride, pad int }{
		{2, 3, 8, 8, 4, 3, 1, 1},
		{1, 1, 5, 7, 1, 3, 2, 0},
		{3, 2, 9, 9, 7, 3, 1, 1}, // odd outC: dot2 pairing leaves a tail
		{2, 4, 6, 6, 16, 5, 1, 2},
	}
	for _, cse := range cases {
		x := New(cse.b, cse.c, cse.h, cse.w)
		fillMixed(x, rng)
		wt := New(cse.outC, cse.c*cse.k*cse.k)
		fillMixed(wt, rng)
		bias := make([]float64, cse.outC)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		cols, oh, ow := Im2Col(x, cse.k, cse.k, cse.stride, cse.pad)
		// Unfused reference: serial matmul, then rearrange + bias add.
		prod := matMulTransBRef(cols, wt)
		want := New(cse.b, cse.outC, oh, ow)
		pd, wd := prod.data, want.data
		for bi := 0; bi < cse.b; bi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := pd[((bi*oh+oy)*ow+ox)*cse.outC:]
					for oc := 0; oc < cse.outC; oc++ {
						wd[((bi*cse.outC+oc)*oh+oy)*ow+ox] = row[oc] + bias[oc]
					}
				}
			}
		}
		withWorkers(t, func(t *testing.T, w int) {
			got := ConvOut(cols, wt, bias, cse.b, oh, ow)
			mustBitIdentical(t, fmt.Sprintf("ConvOut %+v workers=%d", cse, w), got, want)
			got.Release()
		})
		// And without bias.
		prodOnly := New(cse.b, cse.outC, oh, ow)
		for bi := 0; bi < cse.b; bi++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					row := pd[((bi*oh+oy)*ow+ox)*cse.outC:]
					for oc := 0; oc < cse.outC; oc++ {
						prodOnly.data[((bi*cse.outC+oc)*oh+oy)*ow+ox] = row[oc]
					}
				}
			}
		}
		mustBitIdentical(t, "ConvOut nil bias", ConvOut(cols, wt, nil, cse.b, oh, ow), prodOnly)
	}
}

// TestIm2ColIntoOverwritesStaleWorkspace reuses one dirty workspace across
// different inputs; every element, padding included, must be rewritten.
func TestIm2ColIntoOverwritesStaleWorkspace(t *testing.T) {
	rng := rand.New(rand.NewPCG(47, 53))
	x1 := New(2, 3, 8, 8)
	fillMixed(x1, rng)
	x2 := New(2, 3, 8, 8)
	fillMixed(x2, rng)
	want, _, _ := Im2Col(x2, 3, 3, 1, 1)
	ws, _, _ := Im2Col(x1, 3, 3, 1, 1)
	ws.Fill(math.NaN()) // poison: any skipped element is caught below
	withWorkers(t, func(t *testing.T, w int) {
		Im2ColInto(ws, x2, 3, 3, 1, 1)
		mustBitIdentical(t, fmt.Sprintf("Im2ColInto workers=%d", w), ws, want)
		ws.Fill(math.NaN())
	})
}

// TestCol2ImIntoZeroesDirtyDst mirrors the workspace test for the adjoint.
func TestCol2ImIntoZeroesDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewPCG(59, 61))
	x := New(3, 2, 9, 9)
	fillMixed(x, rng)
	cols, _, _ := Im2Col(x, 3, 3, 2, 1)
	fillMixed(cols, rng)
	want := Col2Im(cols, 3, 2, 9, 9, 3, 3, 2, 1)
	dst := New(3, 2, 9, 9)
	withWorkers(t, func(t *testing.T, w int) {
		dst.Fill(math.NaN())
		Col2ImInto(dst, cols, 3, 3, 2, 1)
		mustBitIdentical(t, fmt.Sprintf("Col2ImInto workers=%d", w), dst, want)
	})
}

func TestSetWorkersRoundTrip(t *testing.T) {
	prev := SetWorkers(3)
	defer SetWorkers(prev)
	if got := Workers(); got != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", got)
	}
	if old := SetWorkers(0); old != 3 {
		t.Fatalf("SetWorkers returned %d, want 3", old)
	}
	if got := Workers(); got != runtime.NumCPU() {
		t.Fatalf("Workers() = %d after reset, want NumCPU = %d", got, runtime.NumCPU())
	}
}

// TestPooledTensorsAreZeroed drives buffers through the arena with garbage in
// them and checks NewPooled is indistinguishable from New.
func TestPooledTensorsAreZeroed(t *testing.T) {
	for i := 0; i < 8; i++ {
		p := NewPooled(70, 30) // 2100 floats: above the pooling threshold
		for j := range p.Data() {
			if p.Data()[j] != 0 {
				t.Fatalf("iteration %d: NewPooled buffer not zeroed at %d", i, j)
			}
		}
		p.Fill(math.NaN())
		p.Release()
	}
}

func TestReleaseIsIdempotentAndNilSafe(t *testing.T) {
	var nilT *Tensor
	nilT.Release() // must not panic
	p := NewPooled(64, 64)
	p.Release()
	p.Release() // double release must be a no-op
	if p.Data() != nil {
		t.Fatal("released tensor still exposes data")
	}
}

// TestDotMatchesBatchedTransB pins the equivalence the core package's
// ActivationSets batching relies on: one MatMulTransB row equals the per-row
// dot products, bit for bit.
func TestDotMatchesBatchedTransB(t *testing.T) {
	rng := rand.New(rand.NewPCG(67, 71))
	w := New(37, 53)
	fillMixed(w, rng)
	inputs := New(9, 53)
	fillMixed(inputs, rng)
	z := MatMulTransB(inputs, w)
	for j := 0; j < inputs.Dim(0); j++ {
		zr := z.RowView(j)
		for i := range zr {
			d := dot(w.RowView(i), inputs.RowView(j))
			if math.Float64bits(d) != math.Float64bits(zr[i]) {
				t.Fatalf("row %d neuron %d: dot %g != batched %g", j, i, d, zr[i])
			}
		}
	}
}

// withKernelModes runs f with the AVX2 kernels as detected and again with
// them forced off, restoring useAVX2 afterwards. On hardware without AVX2
// both passes run the pure-Go kernels.
func withKernelModes(t *testing.T, f func(t *testing.T, avx2 bool)) {
	t.Helper()
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	for _, on := range []bool{detected, false} {
		useAVX2 = on
		f(t, on)
	}
}

// kernelShapeCoverage counts how often the property test drew each edge its
// shapes must reach. MatMulTransA's store mode starts each sum with axpy4z
// when k ≥ 4 and with a clear when k < 4, on either path: panelShortK and
// panelRaggedK are panel-path draws with k < 4 and with k > 4, k%4 != 0, and
// smallTransA draws store on the small-output path.
type kernelShapeCoverage struct {
	oddM, raggedK, raggedN, raggedPanel, multiPanel, smallTransA, largeTransA int
	panelShortK, panelRaggedK                                                 int
}

// drawKernelShape picks (m, k, n) biased toward the edges of the vector
// kernels and the blocking: odd m leaves a row for dot's tail, k%4 != 0 a
// ragged tail after the 4-wide k steps, n%4 != 0 columns after the last
// 4-wide block, k < 4 no 4-wide step at all, and n beyond mulColBlock a last
// panel of any width. Roughly half the draws take MatMulTransA's small-output
// path.
func drawKernelShape(rng *rand.Rand, cov *kernelShapeCoverage) (m, k, n int) {
	m = 1 + rng.IntN(40)
	switch rng.IntN(4) {
	case 0:
		k = 1 + rng.IntN(3)
	case 1:
		k = 1 + rng.IntN(12)
	default:
		k = 1 + rng.IntN(160)
	}
	switch rng.IntN(3) {
	case 0:
		n = 1 + rng.IntN(40)
	case 1:
		n = mulColBlock - 4 + rng.IntN(9)
	default:
		n = 2*mulColBlock + 1 + rng.IntN(mulColBlock)
	}
	if m%2 == 1 {
		cov.oddM++
	}
	if k%4 != 0 {
		cov.raggedK++
	}
	if n%4 != 0 {
		cov.raggedN++
	}
	if (n-1)%mulColBlock%4 != 3 {
		cov.raggedPanel++
	}
	if n > mulColBlock {
		cov.multiPanel++
	}
	if m*n <= transASmallOut {
		cov.smallTransA++
	} else {
		cov.largeTransA++
		if k < 4 {
			cov.panelShortK++
		}
		if k > 4 && k%4 != 0 {
			cov.panelRaggedK++
		}
	}
	return m, k, n
}

// TestMatMulKernelsProperty draws random shapes and checks MatMul,
// MatMulTransA and MatMulTransB bit for bit against ref.go at worker counts
// 1, 2 and NumCPU, with the AVX2 kernels on and forced off.
// MatMulTransAInto's add mode into a random non-zero dst must equal ref.go's
// MatMulTransA followed by AddInPlace: dst + (p₀ + p₁ + …), not dst + p₀ +
// p₁ + …. Its store mode into a NaN-filled dst must equal ref.go's
// MatMulTransA: it never reads dst, and each sum starts at +0, which one
// output element whose products are all −0 pins (a sum started from the
// first product would end at −0 there).
func TestMatMulKernelsProperty(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this machine: only the pure-Go kernels run")
	}
	var cov kernelShapeCoverage
	draws := 60
	if testing.Short() {
		draws = 20
	}
	check := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 73))
		m, k, n := drawKernelShape(rng, &cov)
		a, b := New(m, k), New(k, n)
		fillMixed(a, rng)
		fillMixed(b, rng)
		bt, at := New(n, k), New(k, m)
		fillMixed(bt, rng)
		fillMixed(at, rng)
		// Output element (i0, j0) of atᵀ·b sums only −0 products: a
		// positive column of at times a −0 column of b.
		i0, j0 := rng.IntN(m), rng.IntN(n)
		for kk := 0; kk < k; kk++ {
			at.data[kk*m+i0] = 1 + math.Abs(at.data[kk*m+i0])
			b.data[kk*n+j0] = math.Copysign(0, -1)
		}
		want, wantTB, wantTA := matMulRef(a, b), matMulTransBRef(a, bt), matMulTransARef(at, b)
		if math.Signbit(wantTA.data[i0*n+j0]) {
			t.Fatalf("seed %#x: reference sum of −0 products is −0", seed)
		}
		dst := New(m, n)
		dst.FillRandn(rng, 1)
		wantTAAdd := dst.Clone().AddInPlace(wantTA)
		transAInto := func(add bool) *Tensor {
			out := dst.ClonePooled()
			if !add {
				out.Fill(math.NaN())
			}
			MatMulTransAInto(out, at, b, add)
			return out
		}
		withKernelModes(t, func(t *testing.T, avx2 bool) {
			for _, w := range []int{1, 2, runtime.NumCPU()} {
				prev := SetWorkers(w)
				for _, c := range []struct {
					op        string
					got, want *Tensor
				}{
					{"MatMul", MatMul(a, b), want},
					{"MatMulTransB", MatMulTransB(a, bt), wantTB},
					{"MatMulTransA", MatMulTransA(at, b), wantTA},
					{"MatMulTransAInto add", transAInto(true), wantTAAdd},
					{"MatMulTransAInto store", transAInto(false), wantTA},
				} {
					mustBitIdentical(t, fmt.Sprintf("seed %#x: %s %dx%dx%d workers=%d avx2=%v", seed, c.op, m, k, n, w, avx2), c.got, c.want)
					c.got.Release()
				}
				SetWorkers(prev)
			}
		})
		return true
	}
	cfg := &quick.Config{MaxCount: draws, Rand: mrand.New(mrand.NewSource(79))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
	if cov.oddM == 0 || cov.raggedK == 0 || cov.raggedN == 0 || cov.raggedPanel == 0 ||
		cov.multiPanel == 0 || cov.smallTransA == 0 || cov.largeTransA == 0 ||
		cov.panelShortK == 0 || cov.panelRaggedK == 0 {
		t.Fatalf("draws missed a kernel edge: %+v", cov)
	}
}

// TestVectorKernelsRejectShortOperands: the wrappers reslice every operand
// to the length the assembly will read, so a short one panics in Go with a
// bounds error instead of reaching an unchecked load.
func TestVectorKernelsRejectShortOperands(t *testing.T) {
	long, short := make([]float64, 8), make([]float64, 7)
	rows := func(n int) []float64 { return make([]float64, n) }
	cases := []struct {
		name string
		call func()
	}{
		{"axpy short y", func() { axpy(short, 1, long) }},
		{"axpy4 short x3", func() { axpy4(long, 1, 1, 1, 1, long, long, long, short) }},
		{"axpy4z short x3", func() { axpy4z(long, 1, 1, 1, 1, long, long, long, short) }},
		{"axpy4 short x0", func() { axpy4(long, 1, 1, 1, 1, short, long, long, long) }},
		{"axpy4z short x1", func() { axpy4z(long, 1, 1, 1, 1, long, short, long, long) }},
		{"addTo short y", func() { addTo(short, long) }},
		{"dot2x4 short a1", func() { dot2x4(rows(4), rows(4), long, short, rows(32)) }},
		{"dot2x4 short b", func() { dot2x4(rows(4), rows(4), long, long, rows(31)) }},
		{"dot2x4 short o1", func() { dot2x4(rows(4), rows(3), long, long, rows(32)) }},
	}
	withKernelModes(t, func(t *testing.T, avx2 bool) {
		for _, c := range cases {
			func() {
				defer func() {
					if _, ok := recover().(runtime.Error); !ok {
						t.Errorf("%s (avx2=%v): want a runtime bounds panic", c.name, avx2)
					}
				}()
				c.call()
			}()
		}
	})
}

// TestAddToKernelsAgree runs addTo with the AVX2 body as detected and forced
// off over lengths 0–37, which take every ragged tail, and over one
// paper-attack update (256×3072). Half the operands are ±0, ±Inf or NaN, so
// signed-zero sums and Inf−Inf meet in the vector lanes as well as the tail.
// Results must agree bit for bit, except that two NaNs need only both be NaN.
func TestAddToKernelsAgree(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this machine: both passes run the pure-Go loop")
	}
	rng := rand.New(rand.NewPCG(83, 89))
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	operand := func(n int) []float64 {
		v := make([]float64, n)
		for i := range v {
			if rng.IntN(2) == 0 {
				v[i] = specials[rng.IntN(len(specials))]
			} else {
				v[i] = rng.NormFloat64()
			}
		}
		return v
	}
	lengths := make([]int, 0, 39)
	for n := 0; n <= 37; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 256*3*32*32)
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	for _, n := range lengths {
		y, x := operand(n), operand(n)
		got, want := append([]float64(nil), y...), append([]float64(nil), y...)
		useAVX2 = detected
		addTo(got, x)
		useAVX2 = false
		addTo(want, x)
		for i := range want {
			g, w := got[i], want[i]
			if math.IsNaN(g) && math.IsNaN(w) {
				continue
			}
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("len %d element %d: %g + %g = %x (%g) with avx2=%v, %x (%g) in Go",
					n, i, y[i], x[i], math.Float64bits(g), g, detected, math.Float64bits(w), w)
			}
		}
	}
}
