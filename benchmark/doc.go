// Command benchmark is the end-to-end benchmark of the OASIS simulator.
//
// It drives four seeded workloads through the program's public entry points
// (sim.RunContext, experiments.RunSweep, dist.StartCoordinator and Wait,
// dist.RunWorker), measures them from outside, checks their outputs, and
// prints one "<workload> <metric> <value> <unit>" line per metric, with the
// sample count of each timing, then a JSON result object as the last line:
//
//	{"correct": true, "attempted": 960, "failed": 0, "metrics": {"setup_s": {"value": 0.29, "unit": "s"}, ...}}
//
// Run it from the repository root:
//
//	bash benchmark/run.sh --workload paper-attack --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module into .bench_build (its go.mod points the oasis
// module at the repository root, so it can import the internal packages) and
// runs it with the given flags. Inside benchmark/, "go run . --workload …"
// and "go test -short ." work as usual; the tests check the arithmetic below
// and run every workload at a tiny size. BENCHMARK.json at the repository
// root declares the workloads, the metrics with their units and regression
// bounds, and the command.
//
// # One invocation
//
//  1. Reference run: run 0's inputs, untimed, with one worker where the timed
//     runs use two (one client worker on the sim workloads, one cell worker
//     on sweep-grid, one dist worker on dist-sweep). It warms the process up,
//     and at every progress line, where one worker leaves the program idle,
//     it forces two GCs and reads the live heap.
//  2. Timed runs 0, 1, …, each at a scenario seed derived from --seed, until
//     --seconds of wall time are spent and the runs hold at least 100 steps.
//     Every run starts from a collected heap.
//  3. With --trace 1, the budget is split: half for untraced runs, half for
//     the same seeds re-run under an obs session, each inside a "bench.run"
//     span. The per-layer metrics replace the end-to-end ones.
//
// A step is the stretch between two progress lines: a round on the sim
// workloads (sim.Options.Log), a merged job on the sweeps (the sweep log, or
// the coordinator's "job …" line). Load is a closed loop from this one
// process: two workers of the program on the machine's two cores and, on
// dist-sweep, two loopback TCP connections.
//
// # Output checks
//
// The command prints "correct": false and exits 1 when
//   - timed run 0's report JSON differs from the reference run's: one
//     against two client workers, one against two cell workers, or one
//     against two dist workers;
//   - a traced run's report differs from the untraced run at the same seed;
//   - a round's selected clients are not completed + dropped + late + failed;
//   - a strike round yields no reconstructions, or a sweep cell has none, has
//     failed replicates, or is missing.
//
// It exits 1 without a result when a run fails, or when dist-sweep's report
// differs from the in-process RunSweep of the same grid (the dist reference
// checks this before serving one worker). "attempted" and "failed" count
// operations: client updates on the sim workloads, where a dropped or late
// client is an outcome the scenario draws and not a failure, and jobs on the
// sweeps. Their ratio is the error rate.
//
// # Workloads
//
//   - cross-device: the cross-device-1M preset run for 40 rounds with two
//     client workers: 1M virtual clients, 1024 sampled a round, an 8×8 MLP,
//     OASIS MR on a fifth of the clients and one RTF round. Nearly every
//     sampled client is new, so per-client engine work dominates (selection,
//     leasing, the ordered merge, after-round bookkeeping, instantiation)
//     and kernels do little. Runs stop at 40 rounds because the retained
//     heap grows faster than the rounds (see the findings below).
//   - paper-attack: the paper's shape, 24 rounds: 64 clients with 8 a round,
//     batch 8, 3×32×32 synthetic images, RTF with 256 neurons striking every
//     round, OASIS MR on half the clients. Time goes to the malicious layer's
//     matmuls (three quarters of client time when traced), augmentation,
//     reconstruction and PSNR/SSIM scoring; each update folds 786k floats
//     against cross-device's 2.4k.
//   - sweep-grid: the default attack × defense grid (4 attacks × 5 defenses)
//     at 40 replicates, 800 jobs, in-process with two cell workers and one
//     client worker per job. Jobs are small, so per-job work dominates:
//     scenario materialization, attack calibration, pool leasing and merge.
//     A grid takes about two seconds, so a run measures several grids and
//     setup_s has several samples.
//   - dist-sweep: the same grid served by a coordinator to two in-process
//     workers over loopback TCP, with a checkpoint file. Gob round trips and
//     an fsynced append per job sit beside the same compute, so a change to
//     internal/dist alone shows here and not on sweep-grid.
//
// # End-to-end metrics (--trace 0)
//
//	metric             unit  better  bound  definition
//	setup_s            s     lower   0.25   median over runs of CPU time from the entry call to the first progress line
//	ops_per_cpu_s      1/s   higher  0.25   median over runs of operations per CPU second (client updates or jobs)
//	step_cpu_p50_ms    ms    lower   0.25   p50 of CPU time per step, pooled over runs
//	step_cpu_p90_ms    ms    lower   0.25   p90 of the same; 100+ steps keep 10 samples beyond it
//	live_heap_peak_mb  MB    lower   0.10   the reference run's largest live heap at a progress line, 10^6 bytes
//	alloc_kb_per_op    KB    lower   0.05   heap bytes allocated per operation over the timed runs, 10^3 bytes
//
// Timings are the process's CPU time over all its threads (getrusage), at
// the reference speed: each run's CPU times are multiplied by
// refCalibrationCPU over the calibration's CPU time, averaged over the
// calibrations just before and just after the run (calibrate.go). Two facts
// about a shared 2-vCPU KVM guest (an Intel Xeon at 2.1 GHz), where every
// number below was measured, decided this. Wall time lost a fifth of the
// machine to
// hypervisor steal at times, which CPU time leaves out. And the CPU time of
// fixed work drifted by up to 60% over minutes as other guests loaded the
// host: across ten invocations, plain CPU-time throughput spread 6–52%
// (interquartile range over median) and wall time 7–22%; calibrated, it
// spread 3–10% (below). The timing bounds are the largest allowed, 0.25,
// because even calibrated medians moved by up to 13% between two sets of
// runs of the same code. Calibrated CPU time does not see waiting: a change
// that only adds idle time, such as a slower coordinator turnaround, shows
// in the per-layer wait metrics, not here. The two memory metrics do not
// depend on the machine's speed.
//
// Percentiles are nearest-rank. A timing is reported at the highest
// percentile of 50, 90, 99 and 99.9 with at least ten samples beyond it; a
// measurement continues past --seconds until p90 qualifies, so 90 is the
// highest every workload supports.
//
// # Per-layer metrics (--trace 1)
//
// Each metric comes from the traced pass: span durations and self times (a
// span's duration minus the union of its children's intervals, since
// children such as concurrent clients overlap), the obs counters and
// histograms the program already records, and, on dist-sweep, a
// byte-counting proxy in front of the coordinator and the checkpoint's size.
// The benchmark adds no instrumentation to the program; it opens a
// "bench.run" span around each call and passes its context down, and adopts
// root spans the program opens from context.Background (RunSweep's sweep.run,
// sampled tensor kernels) into the run that contains them. A metric whose
// layer a workload never reaches reads 0. Each names the end-to-end metric
// and workload it should move:
//
//	layer        metric                          definition                                     moves
//	sim          sim.materialize_ms              mean span                                      setup_s, cross-device
//	sim          sim.calibrate_attack_ms         mean span                                      setup_s, paper-attack; ops_per_cpu_s, sweep-grid
//	sim          sim.score_ms                    mean span                                      ops_per_cpu_s, paper-attack
//	fl           fl.round_self_ms                p50 self time                                  step_cpu_p50_ms, cross-device
//	fl           fl.after_round_ms               p50 self time; walks every resident client     step_cpu_p90_ms, cross-device
//	fl           fl.client_busy_ratio            Σ fl.client / (Σ fl.round × client workers)    wall time only, cross-device
//	fl           fl.client_ms                    mean span                                      ops_per_cpu_s, paper-attack
//	fl           fl.aggregate_ms                 p50 span                                       step_cpu_p50_ms, paper-attack
//	defense      defense.apply_ms                mean defended batch (obs histogram)            ops_per_cpu_s, paper-attack
//	defense      defense.apply_count             defended batches per run                       ops_per_cpu_s, paper-attack
//	attack       attack.reconstruct_ms           mean update inversion (obs histogram)          ops_per_cpu_s, paper-attack
//	tensor       tensor.kernel_ms                kernel time per run (obs histogram)            ops_per_cpu_s, paper-attack; little on cross-device
//	tensor       tensor.kernel_share             kernel time over Σ fl.client                   ops_per_cpu_s, paper-attack; little on cross-device
//	tensor       tensor.parallel_dispatches      fanned-out kernel calls per run                ops_per_cpu_s, paper-attack; little on cross-device
//	tensor       tensor.pool_miss_ratio          arena misses over gets                         alloc_kb_per_op, paper-attack
//	experiments  sweep.cell_ms                   p50 span                                       ops_per_cpu_s, both sweeps
//	experiments  sweep.lease_wait_ms             mean span: a cell worker waiting for a job     wall time only, sweep-grid
//	experiments  sweep.merge_ms                  mean span                                      ops_per_cpu_s, sweep-grid
//	dist         dist.lease_wait_ms              mean span: a worker waiting for a lease        wall time only, dist-sweep
//	dist         dist.turnaround_ms              p50 at the proxy, result in to next lease out  ops_per_cpu_s (its gob and append work), dist-sweep
//	dist         dist.wire_bytes_per_job         proxied bytes, both directions, per job        ops_per_cpu_s, alloc_kb_per_op, dist-sweep
//	dist         dist.checkpoint_bytes_per_job   checkpoint file size per job                   ops_per_cpu_s, dist-sweep
//	dist         dist.released                   leases re-queued after a worker broke          failed, dist-sweep
//	dist         dist.duplicate_results          results dropped as duplicates                  failed, dist-sweep
//	benchmark    span_coverage_pct               smallest share of a run span under a phase     (the trace's completeness)
//	benchmark    trace_overhead_pct              traced wall time over untraced, same seeds     (the tracing cost)
//
// A phase is a span two levels below bench.run, under the program's own
// top-level span (sim.run, sweep.run, dist.lease). On cross-device and
// paper-attack the phases cover more than 99.9% of every run.
//
// # Measurements
//
// Two sets of ten invocations of run.sh with --seconds 20, seeds 1–10 and
// then 11–20, on the 2-vCPU KVM guest described above; each cell is the
// median [first quartile, third quartile] of the ten:
//
//	workload      metric             seeds 1–10                   seeds 11–20
//	cross-device  setup_s            0.2140 [0.2026, 0.2269]      0.2174 [0.2125, 0.2235]
//	cross-device  ops_per_cpu_s      9517 [9041, 9833]            9527 [9339, 9828]
//	cross-device  step_cpu_p50_ms    92.35 [89.18, 97.85]         91.43 [89.48, 94.55]
//	cross-device  step_cpu_p90_ms    136.6 [133.6, 145.4]         137.0 [135.4, 139.5]
//	cross-device  live_heap_peak_mb  90.15 [90.11, 90.20]         90.17 [90.10, 90.21]
//	cross-device  alloc_kb_per_op    79.29 [79.27, 79.30]         79.28 [79.26, 79.30]
//	paper-attack  setup_s            0.3283 [0.2930, 0.3382]      0.3292 [0.3128, 0.3697]
//	paper-attack  ops_per_cpu_s      31.29 [29.52, 32.34]         31.41 [29.81, 32.09]
//	paper-attack  step_cpu_p50_ms    247.1 [239.8, 259.9]         246.9 [239.2, 253.2]
//	paper-attack  step_cpu_p90_ms    322.9 [309.7, 332.8]         310.9 [297.5, 318.0]
//	paper-attack  live_heap_peak_mb  89.34 [89.19, 89.45]         89.42 [89.25, 89.63]
//	paper-attack  alloc_kb_per_op    17397 [17360, 17420]         17385 [17349, 17435]
//	sweep-grid    setup_s            0.00579 [0.00540, 0.00626]   0.00576 [0.00521, 0.00608]
//	sweep-grid    ops_per_cpu_s      292.6 [280.6, 297.0]         283.2 [276.1, 288.9]
//	sweep-grid    step_cpu_p50_ms    3.346 [3.256, 3.463]         3.503 [3.448, 3.630]
//	sweep-grid    step_cpu_p90_ms    6.073 [5.925, 6.250]         6.244 [6.074, 6.355]
//	sweep-grid    live_heap_peak_mb  0.2685 [0.2631, 0.2688]      0.2654 [0.2638, 0.2687]
//	sweep-grid    alloc_kb_per_op    1534 [1534, 1534]            1534 [1534, 1534]
//	dist-sweep    setup_s            0.00864 [0.00747, 0.00903]   0.00947 [0.00911, 0.00983]
//	dist-sweep    ops_per_cpu_s      267.0 [263.4, 287.0]         249.0 [245.1, 252.6]
//	dist-sweep    step_cpu_p50_ms    3.755 [3.437, 3.814]         4.061 [4.008, 4.117]
//	dist-sweep    step_cpu_p90_ms    6.791 [6.622, 7.288]         7.665 [7.558, 7.812]
//	dist-sweep    live_heap_peak_mb  0.3904 [0.3894, 0.3911]      0.3891 [0.3885, 0.3900]
//	dist-sweep    alloc_kb_per_op    1537 [1537, 1537]            1537 [1537, 1537]
//
// Every invocation passed its output checks and failed no operation. An
// invocation took 22–40 s of wall time, most on paper-attack, whose five
// runs are needed for 100 steps.
//
// # Findings left for later
//
// Measured on the same guest, outside the benchmark's own runs:
//   - Resident heap. cross-device keeps every client it ever sampled, and its
//     retained heap grows faster than their number: 28.8 MB after 10
//     rounds, 43.6 MB after 20, 90.3 MB after 40 and 249 MB after 80, which
//     is 2.2 KB per sampled client at 40 rounds and 3.0 KB at 80.
//   - Two-worker scaling. A 40-round cross-device run took 3.54 s with one
//     client worker and 2.80 s with two (median of five alternating pairs,
//     1.29× faster); paper-attack 5.62 s and 3.90 s (1.38×). Neither gets
//     close to 2× on two cores.
//   - Distribution overhead. A dist-sweep grid took 16% more wall time than
//     the same grid in-process (pairs 10–29%) and 7.5% more CPU time.
package main
