package tensor

import (
	rand "math/rand/v2"
	"testing"
)

// Micro-benchmarks for the kernels that dominate the experiment harness:
// the malicious-layer matmuls and the conv lowering.

func benchPair(m, k, n int) (*Tensor, *Tensor) {
	rng := rand.New(rand.NewPCG(1, 2))
	a := New(m, k)
	a.FillRandn(rng, 1)
	b := New(n, k) // transB layout
	b.FillRandn(rng, 1)
	return a, b
}

func BenchmarkMatMulTransB_8x3072x500(b *testing.B) {
	x, w := benchPair(8, 3072, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMulTransB(x, w)
	}
}

func BenchmarkMatMulTransB_64x3072x500(b *testing.B) {
	x, w := benchPair(64, 3072, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMulTransB(x, w)
	}
}

func BenchmarkMatMulTransA_64x3072x500(b *testing.B) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := New(64, 500)
	g.FillRandn(rng, 1)
	x := New(64, 3072)
	x.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMulTransA(g, x)
	}
}

func BenchmarkMatMul_64x3072x500(b *testing.B) {
	rng := rand.New(rand.NewPCG(9, 10))
	x := New(64, 3072)
	x.FillRandn(rng, 1)
	w := New(3072, 500)
	w.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = MatMul(x, w)
	}
}

// The malicious imprint layer of the paper-attack workload is 3072→256 at
// batch 8 and 32: its forward pass is MatMulTransB(x, W) and its weight
// gradient MatMulTransA(gradOut, x).
func benchTransA(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewPCG(15, 16))
	g := New(k, m)
	g.FillRandn(rng, 1)
	x := New(k, n)
	x.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransA(g, x).Release()
	}
}

func benchTransB(b *testing.B, m, k, n int) {
	x, w := benchPair(m, k, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(x, w).Release()
	}
}

// benchTransAStore stores the imprint layer's weight gradient into one reused
// dst, the way Linear.backwardParams writes its first gradient into G.
func benchTransAStore(b *testing.B, m, k, n int) {
	rng := rand.New(rand.NewPCG(17, 18))
	g := New(k, m)
	g.FillRandn(rng, 1)
	x := New(k, n)
	x.FillRandn(rng, 1)
	dst := New(m, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransAInto(dst, g, x, false)
	}
}

func BenchmarkMatMulTransA_256x8x3072(b *testing.B)  { benchTransA(b, 256, 8, 3072) }
func BenchmarkMatMulTransA_256x32x3072(b *testing.B) { benchTransA(b, 256, 32, 3072) }
func BenchmarkMatMulTransB_8x3072x256(b *testing.B)  { benchTransB(b, 8, 3072, 256) }
func BenchmarkMatMulTransB_32x3072x256(b *testing.B) { benchTransB(b, 32, 3072, 256) }

func BenchmarkMatMulTransAInto_store_256x8x3072(b *testing.B)  { benchTransAStore(b, 256, 8, 3072) }
func BenchmarkMatMulTransAInto_store_256x32x3072(b *testing.B) { benchTransAStore(b, 256, 32, 3072) }

// BenchmarkAddInPlace_256x3072 adds one paper-attack update (the 256×3072
// imprint weight) into a running sum, as FedAvgMean.Add does per client.
func BenchmarkAddInPlace_256x3072(b *testing.B) {
	rng := rand.New(rand.NewPCG(19, 20))
	sum := New(256, 3072)
	u := New(256, 3072)
	u.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sum.AddInPlace(u)
	}
}

// BenchmarkMatMulTransB_Ref pins the retained serial reference (with its
// av == 0 sparse-skip branch) next to the production kernel, so the
// branch-removal justification stays measurable: on dense operands the
// branch is pure mispredict cost.
func BenchmarkMatMulTransB_Ref_64x3072x500(b *testing.B) {
	x, w := benchPair(64, 3072, 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = matMulTransBRef(x, w)
	}
}

// BenchmarkConvLowering measures the fused Im2ColInto+ConvOut pipeline with
// a reused workspace; ReportAllocs shows the arena holding steady-state
// allocations near zero.
func BenchmarkConvLowering_8x3x32x32(b *testing.B) {
	rng := rand.New(rand.NewPCG(13, 14))
	x := New(8, 3, 32, 32)
	x.FillRandn(rng, 1)
	wmat := New(16, 3*3*3)
	wmat.FillRandn(rng, 1)
	bias := make([]float64, 16)
	cols := New(8*32*32, 3*3*3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColInto(cols, x, 3, 3, 1, 1)
		out := ConvOut(cols, wmat, bias, 8, 32, 32)
		out.Release()
	}
}

func BenchmarkIm2Col32x32(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	x := New(8, 3, 32, 32)
	x.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = Im2Col(x, 3, 3, 1, 1)
	}
}

func BenchmarkGobRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 8))
	t := New(500, 3072)
	t.FillRandn(rng, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		raw, err := t.GobEncode()
		if err != nil {
			b.Fatal(err)
		}
		var back Tensor
		if err := back.GobDecode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
