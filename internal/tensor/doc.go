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
// The matmul family (MatMul, MatMulTransA, MatMulTransB) and Transpose2D are
// cache-blocked and goroutine-tiled:
//
//   - MatMul packs B into contiguous column panels of mulColBlock columns so
//     the inner axpy streams the panel instead of striding across B's full
//     row length, and accumulates C row by row in ascending-k order.
//   - MatMulTransB walks B in transBRowBlock-row panels that stay hot in L1
//     across A's rows, processing two A rows per panel pass (dot2) to halve
//     panel reads per output element.
//   - MatMulTransA uses the historical kk-outer order while the whole output
//     fits in cache (transASmallOut) and switches to packed panels beyond it.
//   - Transpose2D copies transposeTile×transposeTile squares so both the
//     row-major reads and the column-major writes stay inside L1.
//
// Work is distributed over goroutines by parallelRows: the output rows are
// split into at most Workers() contiguous disjoint spans, and only when the
// kernel's FLOP count clears parallelMinFlops — small products always run
// inline. SetWorkers bounds the fan-out process-wide (default NumCPU);
// SetWorkers(1) forces every kernel serial, which the perf-trajectory gate
// uses to compare machines with different core counts.
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
//     zero. The blocked kernels do not: adding a ±0.0 term never changes a
//     finite IEEE-754 running sum (and a running sum that started at +0.0
//     cannot become -0.0), so dropping the branch is bit-identical on finite
//     inputs while removing a data-dependent mispredict from the innermost
//     loop (~8% of MatMulTransB's serial runtime on dense Gaussian operands
//     when toggled in isolation; BenchmarkMatMulTransB_Ref_64x3072x500 keeps
//     the branch-bearing reference measurable next to the blocked kernel).
//   - dot2 computes two output elements per B-panel pass but evaluates each
//     one with exactly the same 4-way unrolled partial-sum pattern as dot,
//     so pairing rows changes nothing in either row's rounding.
//
// Simulation reports therefore stay byte-identical for a fixed seed across
// tensor.SetWorkers values, machine core counts, and this PR's kernel
// rewrite.
//
// # Workspace arena
//
// pool.go maintains size-bucketed sync.Pools of float64 slices (capacity
// 2^b, smallest pooled class 8 KiB). NewPooled draws a zeroed tensor from
// the arena, ClonePooled an unzeroed one that its copy overwrites in full;
// Release hands the backing array back and clears the tensor so
// stale use panics instead of aliasing recycled memory. Kernel outputs and
// the conv lowering workspaces are arena-backed: a Conv2D's im2col matrix
// lives from Forward(train) to the end of the matching Backward, gradient
// scratch is released within the call that created it, and anything a
// caller keeps (layer outputs, accumulated gradients) is simply never
// released and gets collected like an ordinary allocation. Steady-state
// allocation per training step stays O(model outputs) instead of
// O(batch·OH·OW) — see the ReportAllocs benchmarks in nn/bench_test.go.
//
// # Performance trajectory
//
// The shapes that dominate the experiment harness are benchmarked in
// bench_test.go, and internal/perf freezes calibration-normalized timings
// of the same kernels (plus the full round engine) into BENCH_tensor.json /
// BENCH_round.json at the repo root. CI re-measures and fails on >15%
// regression; refresh the baselines with `go run ./cmd/oasis-bench -round`
// whenever a change intentionally shifts kernel cost.
//
// The pooling discipline is enforced mechanically: the poolpair analyzer in
// internal/analysis verifies that every NewPooled/ClonePooled value reaches
// Release or visibly transfers ownership on all paths, as part of the
// repo-wide determinism contract written up in the "Static analysis"
// section of the repository README.
package tensor
