package tensor

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/obs"
)

// Matrix kernels: cache-blocked, goroutine-tiled, and bit-identical to the
// historical serial implementations retained in ref.go.
//
// Three rules keep results reproducible while everything else about the
// loops is rearranged for locality:
//
//  1. Fixed summation order. Every output element accumulates its k products
//     in ascending-k order (MatMulTransB through the same 4-way unrolled dot
//     the serial kernel used), so no tiling choice changes a rounding step.
//     The inner dimension is never split across partial sums.
//  2. Exclusive ownership. Goroutines receive disjoint row spans of the
//     output (parallelRows); each element is computed start-to-finish by
//     exactly one goroutine. No atomics, no reductions, no races.
//  3. No branch per element. The historical `av == 0` sparse-skip branches
//     are gone from the inner loops, where they were a mispredict tax on
//     every iteration. MatMul and MatMulTransB run dense: their operands are
//     dense activations. MatMulTransAInto's panel path still skips zero
//     coefficients, because a weight gradient's coefficients are the layer's
//     output gradient, which a ReLU leaves about half exact zeros on the
//     imprint layers. Once per output row and column panel it gathers the k
//     whose a[kk,i] is nonzero, without a branch, and folds only those terms
//     through the unchanged axpy4z/axpy4/axpy chain. That is exact for a
//     finite b: a sum that starts at +0 never reaches −0, so adding a ±0
//     term leaves it unchanged, whichever terms share one axpy4 call. A
//     panel of b that holds an Inf or NaN keeps every term, so that 0·Inf is
//     NaN as in the dense sum. The small-output path stays dense: its rows
//     are too short to pay for a gather. The differential tests assert exact
//     equality against ref.go, which skips the same terms.
//
// Fused accumulate and store: MatMulTransAInto(dst, a, b, add) writes aᵀ·b
// into dst, which is how the layers form weight gradients. Each output
// element's sum starts at +0 and takes its products in ascending order (on
// the panel path only those of nonzero coefficients, rule 3); the first four
// come from axpy4z, which computes (((+0 + p₀) + p₁) + p₂) + p₃ without
// reading its destination (with fewer than four the destination is cleared
// and axpy takes each one). With add clear the sum accumulates in dst
// itself, which is never read before that first step, so dst may hold
// anything, NaN included. That store is bit-identical to adding the sum into
// a zeroed dst: a sum that starts at +0 can never end at −0, so +0 + Σ is Σ
// bit for bit. Starting the sum from the first product instead would not be:
// an element whose products are all −0 would end at −0. With add set the sum
// forms in an L1 accumulator (one mulColBlock panel row, or one row span on
// the small-output path) and is then added to dst once: dst + (p₀ + p₁ + …),
// the rounding sequence of MatMulTransA followed by AddInPlace. Accumulating
// straight into dst, (dst + p₀) + p₁ + …, would round differently.
// MatMulTransA is the store mode over an unzeroed arena tensor.
//
// Blocking scheme: the output is tiled into column panels (mulColBlock wide);
// operands whose panel columns stride across wide rows (MatMul, MatMulTransA)
// are packed into a contiguous pooled buffer once per panel and reused across
// the whole row span, so steady-state traffic is panel-sized instead of
// operand-sized. MatMulTransB's B rows are already contiguous, so it tiles
// without packing and amortizes each B row over two A rows per pass (dot2).
//
// AVX2 path (amd64, simd_amd64.s): when useAVX2 is set, axpy, axpy4,
// axpy4z, dot2x4 and addTo hand their 4-aligned body to vector kernels and
// run the ragged rest in Go. Rule 1 survives lane by lane: the kernels use
// separate VMULPD and VADDPD, never FMA, so every product and sum rounds as
// the scalar Go statement does; an axpy or addTo lane owns one output
// element; axpy4 keeps y in a register across four ascending k steps, and
// axpy4z does the same from a zeroed register; and dot2x4's accumulator lanes
// are dot's four strided partials, folded s0+s1+s2+s3 in Go before the k
// tail. MatMul and MatMulTransA step k four at a time through axpy4 on either
// path, and MatMulTransB takes four B rows per dot2x4 call when AVX2 is on.
// useAVX2 is set once from CPUID and XGETBV (simd_amd64.go). The assembly
// declarations are //go:noescape so that the operands, dot2x4's [32]float64
// accumulator block among them, stay off the heap.
const (
	// mulColBlock is the output-column panel width for the packed kernels:
	// 512 float64s keep a packed panel row plus the matching output chunk
	// inside L1 while a whole k×512 panel stays L2-resident for reuse.
	mulColBlock = 512
	// transBRowBlock is how many B rows (output columns) MatMulTransB holds
	// hot per pass over a row span; 32 rows of a 3072-wide B is 768 KiB,
	// sized for the L2 the attack-shaped matmuls stream through.
	transBRowBlock = 32
	// transASmallOut: below this many output elements MatMulTransA keeps the
	// historical kk-outer order (the whole output stays cache-resident, so
	// panel packing would only add copies).
	transASmallOut = 1 << 14
)

// MatMul returns the matrix product a·b for 2-D tensors a (m×k) and b (k×n).
func MatMul(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.shape, b.shape))
	}
	out := NewPooled(m, n)
	ad, bd, od := a.data, b.data, out.data
	parallelRows("matmul", m, m*k*n, func(lo, hi int) {
		w0 := min(mulColBlock, n)
		panel := getBuf(k * w0)
		for jb := 0; jb < n; jb += mulColBlock {
			je := min(jb+mulColBlock, n)
			w := je - jb
			// Pack B's column panel b[:, jb:je] contiguously so the
			// accumulation loop streams it without striding across n.
			for kk := 0; kk < k; kk++ {
				copy(panel[kk*w:(kk+1)*w], bd[kk*n+jb:kk*n+je])
			}
			for i := lo; i < hi; i++ {
				arow := ad[i*k : (i+1)*k]
				orow := od[i*n+jb : i*n+je]
				kk := 0
				for ; kk+4 <= k; kk += 4 {
					axpy4(orow, arow[kk], arow[kk+1], arow[kk+2], arow[kk+3],
						panel[kk*w:(kk+1)*w], panel[(kk+1)*w:(kk+2)*w], panel[(kk+2)*w:(kk+3)*w], panel[(kk+3)*w:(kk+4)*w])
				}
				for ; kk < k; kk++ {
					axpy(orow, arow[kk], panel[kk*w:(kk+1)*w])
				}
			}
		}
		putBuf(panel)
	})
	return out
}

// MatMulTransB returns a·bᵀ for a (m×k) and b (n×k).
func MatMulTransB(a, b *Tensor) *Tensor {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: MatMulTransB requires 2-D operands, got %v × %v", a.shape, b.shape))
	}
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMulTransB inner dimension mismatch %v × %vᵀ", a.shape, b.shape))
	}
	out := NewPooledRaw(m, n)
	matMulTransBInto(out.data, a.data, b.data, m, k, n)
	return out
}

// matMulTransBInto computes out = a·bᵀ into a caller-provided m×n buffer.
func matMulTransBInto(od, ad, bd []float64, m, k, n int) {
	parallelRows("matmul_tb", m, m*k*n, func(lo, hi int) {
		for jb := 0; jb < n; jb += transBRowBlock {
			je := min(jb+transBRowBlock, n)
			// Two A rows per pass over the hot B panel: halves panel reads
			// per output element; dot2 preserves each row's dot order.
			i := lo
			for ; i+2 <= hi; i += 2 {
				a0 := ad[i*k : (i+1)*k]
				a1 := ad[(i+1)*k : (i+2)*k]
				o0 := od[i*n : (i+1)*n]
				o1 := od[(i+1)*n : (i+2)*n]
				j := jb
				if useAVX2 {
					for ; j+4 <= je; j += 4 {
						dot2x4(o0[j:j+4], o1[j:j+4], a0, a1, bd[j*k:(j+4)*k])
					}
				}
				for ; j < je; j++ {
					o0[j], o1[j] = dot2(a0, a1, bd[j*k:(j+1)*k])
				}
			}
			if i < hi {
				arow := ad[i*k : (i+1)*k]
				orow := od[i*n : (i+1)*n]
				for j := jb; j < je; j++ {
					orow[j] = dot(arow, bd[j*k:(j+1)*k])
				}
			}
		}
	})
}

// MatMulTransA returns aᵀ·b for a (k×m) and b (k×n): the store mode of
// MatMulTransAInto over an unzeroed arena tensor, which is bit-exact (see the
// fused accumulate and store above).
func MatMulTransA(a, b *Tensor) *Tensor {
	_, m, n := transADims("MatMulTransA", a, b)
	out := NewPooledRaw(m, n)
	MatMulTransAInto(out, a, b, false)
	return out
}

// MatMulTransAInto writes aᵀ·b into dst (m×n) for a (k×m) and b (k×n). With
// add set it adds, bit for bit as dst.AddInPlace(MatMulTransA(a, b)) would,
// without the m×n temporary or the extra pass over it. With add clear it
// overwrites dst without reading it, bit for bit as adding into a zeroed dst
// would.
func MatMulTransAInto(dst, a, b *Tensor, add bool) {
	k, m, n := transADims("MatMulTransAInto", a, b)
	if dst.Dims() != 2 || dst.shape[0] != m || dst.shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulTransAInto destination %v, want [%d %d]", dst.shape, m, n))
	}
	ad, bd, od := a.data, b.data, dst.data
	flops := k * m * n
	obsTransATerms.Add(int64(flops))
	if m*n <= transASmallOut {
		// Small output (conv weight gradients): the whole m×n result is
		// cache-resident, so keep the historical kk-outer sweep — minus the
		// sparse-skip branch — into dst's row span (in add mode, into one
		// accumulator per row span), and split the output rows across
		// workers.
		parallelRows("matmul_ta", m, flops, func(lo, hi int) {
			acc := od[lo*n : hi*n]
			if add {
				acc, _ = getRawBuf((hi - lo) * n)
			}
			kk := 0
			if k >= 4 {
				b0, b1, b2, b3 := bd[:n], bd[n:2*n], bd[2*n:3*n], bd[3*n:4*n]
				for i := lo; i < hi; i++ {
					axpy4z(acc[(i-lo)*n:(i-lo+1)*n], ad[i], ad[m+i], ad[2*m+i], ad[3*m+i], b0, b1, b2, b3)
				}
				kk = 4
			} else {
				clear(acc)
			}
			for ; kk+4 <= k; kk += 4 {
				arows := ad[kk*m : (kk+4)*m]
				b0, b1, b2, b3 := bd[kk*n:(kk+1)*n], bd[(kk+1)*n:(kk+2)*n], bd[(kk+2)*n:(kk+3)*n], bd[(kk+3)*n:(kk+4)*n]
				for i := lo; i < hi; i++ {
					axpy4(acc[(i-lo)*n:(i-lo+1)*n], arows[i], arows[m+i], arows[2*m+i], arows[3*m+i], b0, b1, b2, b3)
				}
			}
			for ; kk < k; kk++ {
				arow := ad[kk*m : (kk+1)*m]
				brow := bd[kk*n : (kk+1)*n]
				for i := lo; i < hi; i++ {
					axpy(acc[(i-lo)*n:(i-lo+1)*n], arow[i], brow)
				}
			}
			if add {
				addTo(od[lo*n:hi*n], acc)
				putBuf(acc)
			}
		})
		return
	}
	// Large output (malicious-layer weight gradients, e.g. 3072×500): tile
	// output columns and pack B's panel once per span so each output tile
	// accumulates from L1/L2-resident data into its slice of a dst row (in
	// add mode, into an L1 accumulator). Each output row folds only its
	// nonzero coefficients' terms, in ascending k (see rule 3); a panel with
	// an Inf or NaN keeps every term, so that 0·Inf is NaN as in the dense
	// sum.
	parallelRows("matmul_ta", m, flops, func(lo, hi int) {
		var accBlock [mulColBlock]float64
		var termBlock [maxStackTerms]int
		terms := termBlock[:min(k, maxStackTerms)]
		if k > maxStackTerms {
			terms = make([]int, k)
		}
		w0 := min(mulColBlock, n)
		panel := getBuf(k * w0)
		skipped := 0
		for jb := 0; jb < n; jb += mulColBlock {
			je := min(jb+mulColBlock, n)
			w := je - jb
			for kk := 0; kk < k; kk++ {
				copy(panel[kk*w:(kk+1)*w], bd[kk*n+jb:kk*n+je])
			}
			keepAll := !allFinite(panel, k, accBlock[:w])
			for i := lo; i < hi; i++ {
				acc := od[i*n+jb : i*n+je]
				if add {
					acc = accBlock[:w]
				}
				t := gatherTerms(terms, ad[i:], m, keepAll)
				skipped += (k - len(t)) * w
				foldTerms(acc, ad[i:], m, t, panel)
				if add {
					addTo(od[i*n+jb:i*n+je], acc)
				}
			}
		}
		putBuf(panel)
		obsTransASkipped.Add(int64(skipped))
	})
}

// maxStackTerms is the longest term list the panel path of MatMulTransAInto
// keeps on the stack; a larger k allocates one list per row span.
const maxStackTerms = 64

// MatMulTransAInto's work counters, never added to per element: every term
// a[kk,i]·b[kk,j] of every output sum, once per call, and the terms the panel
// path left out because their coefficient a[kk,i] is zero, once per row span.
var (
	obsTransATerms   = obs.NewCounter("tensor_transa_terms_total", "terms a[k,i]·b[k,j] of the sums MatMulTransAInto forms")
	obsTransASkipped = obs.NewCounter("tensor_transa_terms_skipped_total", "MatMulTransAInto terms left out for a zero coefficient")
)

// allFinite reports whether the packed k×len(sum) panel holds no Inf or NaN,
// using sum as scratch. An Inf or NaN term leaves any IEEE-754 sum Inf or
// NaN, so a finite total of the column sums proves every element finite. The
// column sums run through addTo's vector lanes, leaving one scalar pass over
// a single panel row. A finite panel whose total overflows reads as
// non-finite, which only makes the caller keep every term.
func allFinite(panel []float64, k int, sum []float64) bool {
	w := len(sum)
	copy(sum, panel[:w])
	for kk := 1; kk < k; kk++ {
		addTo(sum, panel[kk*w:(kk+1)*w])
	}
	var s0, s1, s2, s3 float64
	j := 0
	for ; j+4 <= w; j += 4 {
		s0 += sum[j]
		s1 += sum[j+1]
		s2 += sum[j+2]
		s3 += sum[j+3]
	}
	for ; j < w; j++ {
		s0 += sum[j]
	}
	s := s0 + s1 + s2 + s3
	return s-s == 0
}

// gatherTerms writes to terms, in ascending order, every kk < len(terms)
// whose coefficient col[kk*stride] is nonzero, or every kk when keepAll is
// set, and returns the prefix it wrote. Each index is stored unconditionally
// and only the count depends on the coefficient, which the compiler turns
// into a conditional move rather than a branch.
func gatherTerms(terms []int, col []float64, stride int, keepAll bool) []int {
	if keepAll {
		for kk := range terms {
			terms[kk] = kk
		}
		return terms
	}
	nt := 0
	for kk := range terms {
		terms[nt] = kk
		if col[kk*stride] != 0 {
			nt++
		}
	}
	return terms[:nt]
}

// foldTerms sets acc to the sum, from +0 in ascending order, of
// col[kk*stride]·x_kk over the listed terms kk, where x_kk is row kk of the
// len(acc)-wide packed panel: the first four terms through axpy4z, then
// groups of four through axpy4 and the rest through axpy. With fewer than
// four terms acc is cleared and every term goes through axpy; with none it
// is left at +0. acc is never read before it is written, so it may hold
// anything, NaN included.
func foldTerms(acc, col []float64, stride int, terms []int, panel []float64) {
	w := len(acc)
	t := terms
	if len(t) >= 4 {
		k0, k1, k2, k3 := t[0], t[1], t[2], t[3]
		axpy4z(acc, col[k0*stride], col[k1*stride], col[k2*stride], col[k3*stride],
			panel[k0*w:(k0+1)*w], panel[k1*w:(k1+1)*w], panel[k2*w:(k2+1)*w], panel[k3*w:(k3+1)*w])
		for t = t[4:]; len(t) >= 4; t = t[4:] {
			k0, k1, k2, k3 = t[0], t[1], t[2], t[3]
			axpy4(acc, col[k0*stride], col[k1*stride], col[k2*stride], col[k3*stride],
				panel[k0*w:(k0+1)*w], panel[k1*w:(k1+1)*w], panel[k2*w:(k2+1)*w], panel[k3*w:(k3+1)*w])
		}
	} else {
		clear(acc)
	}
	for _, kk := range t {
		axpy(acc, col[kk*stride], panel[kk*w:(kk+1)*w])
	}
}

// transADims checks the operands of aᵀ·b for a (k×m) and b (k×n) and returns
// k, m and n.
func transADims(op string, a, b *Tensor) (k, m, n int) {
	if a.Dims() != 2 || b.Dims() != 2 {
		panic(fmt.Sprintf("tensor: %s requires 2-D operands, got %vᵀ × %v", op, a.shape, b.shape))
	}
	k, m = a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 {
		panic(fmt.Sprintf("tensor: %s inner dimension mismatch %vᵀ × %v", op, a.shape, b.shape))
	}
	return k, m, n
}

// dot is a 4-way unrolled inner product; the unroll breaks the loop-carried
// dependence that otherwise serializes FP adds on the scalar backend. Its
// exact accumulation pattern (four strided partials, folded s0+s1+s2+s3,
// then the ragged tail) is part of the package's determinism contract: dot2
// and any future variant must reproduce it per row.
func dot(a, b []float64) float64 {
	b = b[:len(a)] // bounds-check elimination for the k-indexed loads below
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(a); k += 4 {
		s0 += a[k] * b[k]
		s1 += a[k+1] * b[k+1]
		s2 += a[k+2] * b[k+2]
		s3 += a[k+3] * b[k+3]
	}
	s := s0 + s1 + s2 + s3
	for ; k < len(a); k++ {
		s += a[k] * b[k]
	}
	return s
}

// dot2 computes a·c and b·c in one pass over c, each with exactly dot's
// accumulation pattern, so pairing rows for panel reuse cannot perturb a bit.
func dot2(a, b, c []float64) (float64, float64) {
	a = a[:len(c)] // bounds-check elimination for the k-indexed loads below
	b = b[:len(c)]
	var s0, s1, s2, s3 float64
	var t0, t1, t2, t3 float64
	k := 0
	for ; k+4 <= len(c); k += 4 {
		c0, c1, c2, c3 := c[k], c[k+1], c[k+2], c[k+3]
		s0 += a[k] * c0
		s1 += a[k+1] * c1
		s2 += a[k+2] * c2
		s3 += a[k+3] * c3
		t0 += b[k] * c0
		t1 += b[k+1] * c1
		t2 += b[k+2] * c2
		t3 += b[k+3] * c3
	}
	s := s0 + s1 + s2 + s3
	t := t0 + t1 + t2 + t3
	for ; k < len(c); k++ {
		s += a[k] * c[k]
		t += b[k] * c[k]
	}
	return s, t
}

// dot2x4 sets o0[c] = dot(a0, b_c) and o1[c] = dot(a1, b_c) for the four
// consecutive len(a0)-long rows b_0..b_3 of b, bit for bit: the AVX2 kernel
// leaves dot's four strided partials of each pair in the lanes of one
// accumulator, and the fold and ragged k tail below are dot's own.
func dot2x4(o0, o1, a0, a1, b []float64) {
	k := len(a0)
	o0, o1, a1 = o0[:4], o1[:4], a1[:k]
	bs := [4][]float64{b[:k], b[k : 2*k], b[2*k : 3*k], b[3*k : 4*k]}
	k4 := k &^ 3
	var acc [32]float64
	dot2x4AVX2(&acc, a0[:k4], a1[:k4], bs[0][:k4], bs[1][:k4], bs[2][:k4], bs[3][:k4])
	for c, bc := range bs {
		p, q := acc[4*c:4*c+4], acc[16+4*c:16+4*c+4]
		s := p[0] + p[1] + p[2] + p[3]
		t := q[0] + q[1] + q[2] + q[3]
		for kk := k4; kk < k; kk++ {
			s += a0[kk] * bc[kk]
			t += a1[kk] * bc[kk]
		}
		o0[c], o1[c] = s, t
	}
}

// axpy computes y[j] += a*x[j]. Each element gets exactly one multiply and
// one add per call, so neither the 4-way unroll nor the AVX2 lanes can
// reorder anything: accumulation order across calls is fixed by the caller's
// k loop.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	j := 0
	if useAVX2 {
		j = len(x) &^ 3
		axpyAVX2(y[:j], a, x[:j])
	}
	for ; j+4 <= len(x); j += 4 {
		y[j] += a * x[j]
		y[j+1] += a * x[j+1]
		y[j+2] += a * x[j+2]
		y[j+3] += a * x[j+3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

// axpy4 is four axpy calls in ascending order over the len(y)-long rows
// x0..x3: y[j] = (((y[j] + a0·x0[j]) + a1·x1[j]) + a2·x2[j]) + a3·x3[j],
// the same four roundings per element, with y[j] loaded and stored once
// instead of four times.
func axpy4(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	j := 0
	if useAVX2 {
		j = n &^ 3
		axpy4AVX2(y[:j], a0, a1, a2, a3, x0[:j], x1[:j], x2[:j], x3[:j])
	}
	for ; j < n; j++ {
		v := y[j] + a0*x0[j]
		v += a1 * x1[j]
		v += a2 * x2[j]
		y[j] = v + a3*x3[j]
	}
}

// axpy4z is axpy4 into a y whose old contents are ignored: y[j] = (((+0 +
// a0·x0[j]) + a1·x1[j]) + a2·x2[j]) + a3·x3[j], the roundings of axpy4
// over a zeroed y. y is never read, so it may hold anything, NaN included.
func axpy4z(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	n := len(y)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	j := 0
	if useAVX2 {
		j = n &^ 3
		axpy4zAVX2(y[:j], a0, a1, a2, a3, x0[:j], x1[:j], x2[:j], x3[:j])
	}
	for ; j < n; j++ {
		v := 0 + a0*x0[j]
		v += a1 * x1[j]
		v += a2 * x2[j]
		y[j] = v + a3*x3[j]
	}
}

// addTo computes y[j] += x[j], one rounding per element, so the AVX2 lanes
// are exact.
func addTo(y, x []float64) {
	y = y[:len(x)]
	j := 0
	if useAVX2 {
		j = len(x) &^ 3
		addAVX2(y[:j], x[:j])
	}
	for ; j < len(x); j++ {
		y[j] += x[j]
	}
}

// SetRow copies v into row i of a 2-D tensor.
func (t *Tensor) SetRow(i int, v []float64) {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("tensor: SetRow requires 2-D tensor, got %v", t.shape))
	}
	n := t.shape[1]
	if len(v) != n {
		panic(fmt.Sprintf("tensor: SetRow length %d != row width %d", len(v), n))
	}
	copy(t.data[i*n:(i+1)*n], v)
}

// RowView returns row i of a 2-D tensor as a slice sharing t's storage.
func (t *Tensor) RowView(i int) []float64 {
	if t.Dims() != 2 {
		panic(fmt.Sprintf("tensor: RowView requires 2-D tensor, got %v", t.shape))
	}
	n := t.shape[1]
	return t.data[i*n : (i+1)*n]
}
