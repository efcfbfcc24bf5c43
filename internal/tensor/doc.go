// Package tensor implements the small dense float64 tensor used by every
// other subsystem in this repository: the neural-network substrate, the
// gradient inversion attacks, and the OASIS defense.
//
// Tensors are row-major and always own their backing slice unless a method is
// explicitly documented as returning a view (Reshape and RowView). Randomized
// fills take an explicit *rand.Rand so experiments stay deterministic.
//
// # Kernel blocking and parallelism
//
// The matmul family (MatMul, MatMulTransA, MatMulTransB) is cache-blocked
// and goroutine-tiled:
//
//   - MatMul packs B into contiguous column panels of mulColBlock columns so
//     the inner axpy streams the panel instead of striding across B's full
//     row length, and accumulates C row by row in ascending-k order.
//   - MatMulTransB walks B in transBRowBlock-row panels that stay hot in L1
//     across A's rows, processing two A rows per panel pass (dot2) to halve
//     panel reads per output element.
//   - MatMulTransA uses the historical kk-outer order while the whole output
//     fits in cache (transASmallOut) and switches to packed panels beyond it.
//     MatMulTransAInto is the same kernel writing into a caller's tensor,
//     adding to it or storing over it; the layers form weight gradients
//     with it.
//
// Work is distributed over goroutines by parallelRows: the output rows are
// split into at most Workers() contiguous disjoint spans, and only when the
// kernel's FLOP count clears parallelMinFlops — small products always run
// inline. SetWorkers bounds the fan-out process-wide (default NumCPU);
// SetWorkers(1) forces every kernel serial, which the allocation budget test
// in internal/experiments uses to measure the same work on any core count.
//
// # Determinism contract
//
// Every kernel is bit-identical to its naive triple-loop ancestor (retained
// in ref.go and enforced by differential_test.go) and across every worker
// count: each output element is accumulated in ascending-k order by exactly
// one goroutine, so the float64 rounding sequence never depends on blocking,
// scheduling, or Workers(). Two deliberate consequences:
//
//   - The old kernels skipped multiply-adds when an A element was exactly
//     zero. Adding a ±0.0 term never changes a finite IEEE-754 running sum
//     (and a running sum that started at +0.0 cannot become -0.0), so
//     skipping is a speed choice, never a numerical one. MatMul and
//     MatMulTransB do not skip: their operands are dense, and dropping the
//     branch removed a data-dependent mispredict from the innermost loop
//     (~8% of MatMulTransB's serial runtime on dense Gaussian operands when
//     toggled in isolation; BenchmarkMatMulTransB_Ref_64x3072x500 keeps the
//     branch-bearing reference measurable next to the blocked kernel).
//     MatMulTransAInto's panel path does skip: a weight gradient's
//     coefficients are a ReLU layer's output gradient, about half exact
//     zeros on the imprint layers, so each output row gathers its nonzero
//     coefficients once per column panel, without a branch per element, and
//     folds only their terms. A panel of B holding an Inf or NaN keeps every
//     term, so 0·Inf is NaN there as in a dense sum. The small-output path
//     (m·n ≤ transASmallOut) stays dense.
//   - dot2 computes two output elements per B-panel pass but evaluates each
//     one with exactly the same 4-way unrolled partial-sum pattern as dot,
//     so pairing rows changes nothing in either row's rounding.
//   - MatMulTransAInto forms each element's sum from +0 and adds the k
//     products in ascending order. In store mode the sum accumulates in dst
//     itself: the first four products come from axpy4z, which computes
//     (((+0 + p₀) + p₁) + p₂) + p₃ without reading dst (with k < 4, dst is
//     cleared first), so dst may hold anything, NaN included. That is
//     bit-exact against adding the sum into a zeroed dst: a sum that starts
//     at +0 can never end at −0, so +0 + Σ = Σ. A sum started from the first
//     product would not be, because an element whose products are all −0
//     would end at −0. In add mode the sum forms in an L1 accumulator and is
//     added to dst once: dst + (p₀ + p₁ + …) is exactly what MatMulTransA
//     followed by AddInPlace computes; (dst + p₀) + p₁ + … would not be, so
//     that mode never accumulates straight into dst. MatMulTransA is the
//     store mode over an unzeroed arena tensor, and nn.Linear stores its
//     first weight gradient into a G that was never zeroed.
//     TestMatMulKernelsProperty checks the add mode into a random non-zero
//     dst against ref.go's MatMulTransA followed by AddInPlace, and the store
//     mode into a NaN-filled dst, with one element whose products are all
//     −0, against ref.go's MatMulTransA; its draws must include panel-path
//     stores with k < 4 and with a ragged k > 4, and small-path stores.
//     TestMatMulTransASkipsZeroTermsProperty and FuzzMatMulTransAInto check
//     the panel path's skip over ReLU-gated coefficients the same way, and
//     TestMatMulTransANonFiniteKeepsTerms its exception for an Inf or NaN.
//
// Simulation reports therefore stay byte-identical for a fixed seed across
// tensor.SetWorkers values, machine core counts, and the kernel rewrites.
//
// # AVX2 kernels
//
// On amd64, five inner loops have Go-assembly versions in simd_amd64.s,
// used when the unexported useAVX2 is set. It is set once at start-up from
// CPUID (AVX and OSXSAVE in leaf 1, AVX2 in leaf 7) plus an XGETBV check
// that the OS saves XMM and YMM state; there is no flag, environment
// variable or build tag. Without AVX2, and on every other GOARCH, the
// pure-Go loops run unchanged.
//
//   - axpy: y[j] += a·x[j], one output element per lane; AddScaledInPlace
//     (the SGD step) is one axpy call.
//   - axpy4: y[j] = (((y[j] + a0·x0[j]) + a1·x1[j]) + a2·x2[j]) + a3·x3[j]
//     with y held in a register, the roundings of four axpy calls in
//     ascending k. It drives the k loops of MatMul and MatMulTransA.
//   - axpy4z: axpy4 from a zeroed register instead of a load of y, the
//     first k step of MatMulTransAInto.
//   - addTo: y[j] += x[j], the body of AddInPlace (and so of the mean
//     aggregator's sum) and of MatMulTransAInto's add mode.
//   - dot2x4: a 2×4 block of MatMulTransB dot products in eight YMM
//     accumulators, one per (A row, B row) pair. The four lanes of each are
//     dot's strided partials s0…s3; Go folds s0+s1+s2+s3 and adds the ragged
//     k tail exactly as dot does.
//
// The results are bit-identical to the pure-Go kernels and to ref.go
// because every product is a VMULPD and every sum a separate VADDPD: no FMA,
// whose single rounding would differ, and no lane ever sums out of its
// scalar order. TestMatMulKernelsProperty checks it on random shapes with
// the kernels on and forced off, and TestAddToKernelsAgree checks addTo
// over ±0, ±Inf and NaN operands; the property test also holds the pure-Go
// side to the same rule, since a build that fused x*y+z into an FMA would
// fail it. CI also runs the tensor and sim tests built with GOAMD64=v3, where
// the compiler may use FMA instructions.
//
// The assembly reads its operands without bounds checks, so the Go wrappers
// reslice every operand to the length the kernel will read before calling
// it: a short slice panics in Go. Each declaration carries //go:noescape;
// without it the compiler must assume the pointers escape, and dot2x4's
// [32]float64 accumulator block would be heap-allocated on every call.
//
// # Workspace arena
//
// pool.go maintains size-bucketed sync.Pools of float64 slices (capacity
// 2^b, smallest pooled class 2^6 floats = 512 B; smaller requests are plain
// exact-size allocations). NewPooled draws a zeroed tensor from
// the arena; ClonePooled and NewPooledRaw draw unzeroed ones, which the copy
// or the caller's first write overwrites in full; Release hands the backing
// array back and clears the tensor so stale use panics instead of aliasing
// recycled memory. Kernel outputs, every layer's outputs and input
// gradients, the loss gradient and the conv lowering workspaces are
// arena-backed: a Conv2D's im2col matrix lives from Forward(train) to the
// end of the matching Backward, gradient scratch is released within the call
// that created it, nn.Sequential releases each intermediate activation and
// gradient once the next layer has consumed it, and a client step releases
// the logits and the loss gradient. Anything a caller keeps (accumulated
// gradients, the weights) is simply never released and gets collected like
// an ordinary allocation. Steady-state allocation per training step stays
// O(model parameters) instead of O(batch·OH·OW) — see the ReportAllocs
// benchmarks in nn/bench_test.go.
//
// # Measuring performance
//
// The shapes that dominate the experiment harness are benchmarked in
// bench_test.go (`go test -bench . ./internal/tensor`). End-to-end and
// per-layer numbers, the tensor.kernel_ms share among them, come from the
// benchmark module (`bash benchmark/run.sh --trace 1`). The arena's reuse is
// held by TestAllocationBudget in internal/experiments, which fails when a
// round or a sweep allocates more than its committed budget.
//
// The pooling discipline is enforced mechanically: the poolpair analyzer in
// internal/analysis verifies that every NewPooled/NewPooledRaw/ClonePooled
// value reaches Release or visibly transfers ownership on all paths, as part
// of the repo-wide determinism contract written up in the "Static analysis"
// section of the repository README.
package tensor
