package tensor

// Reference kernels: the pre-blocking serial implementations, retained
// verbatim so the differential test suite can assert that the tiled parallel
// kernels in matmul.go are bit-identical to what every experiment ran before
// they landed. They are not exported and must not be "optimized" — their
// value is being the fixed point the fast kernels are measured against.
//
// The sparse-skip `av == 0` branches are kept here exactly as they shipped.
// For finite operands they are pure control flow: skipping a zero term and
// adding av*bv = ±0.0 produce the same IEEE-754 sum (+0.0 + -0.0 = +0.0, and
// a running sum that ever held a nonzero value is unaffected by adding a
// signed zero), which is why the production kernels could drop the branch —
// measured at ~8% of MatMul wall clock in mispredictions — without changing a
// single output bit. The differential tests exercise exactly this equality.

// matMulRef is the historical MatMul: ikj loop order, sparse-skip branch.
func matMulRef(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.data[kk*n : (kk+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}

// matMulTransBRef is the historical MatMulTransB: one 4-way unrolled dot per
// output element.
func matMulTransBRef(a, b *Tensor) *Tensor {
	m, k := a.shape[0], a.shape[1]
	n := b.shape[0]
	out := New(m, n)
	for i := 0; i < m; i++ {
		arow := a.data[i*k : (i+1)*k]
		orow := out.data[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			brow := b.data[j*k : (j+1)*k]
			orow[j] = dot(arow, brow)
		}
	}
	return out
}

// matMulTransARef is the historical MatMulTransA: kk-outer accumulation with
// the sparse-skip branch.
func matMulTransARef(a, b *Tensor) *Tensor {
	k, m := a.shape[0], a.shape[1]
	n := b.shape[1]
	out := New(m, n)
	for kk := 0; kk < k; kk++ {
		arow := a.data[kk*m : (kk+1)*m]
		brow := b.data[kk*n : (kk+1)*n]
		for i, av := range arow {
			if av == 0 {
				continue
			}
			orow := out.data[i*n : (i+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out
}
