// Package obs is the repo's structured runtime observability layer: span
// tracing and a typed metric registry, zero external dependencies, built so
// that instrumentation can live permanently inside the hot paths (round
// engine, sim engine, sweep pool, tensor kernels) without perturbing them.
//
// # Tracing
//
// A Session is enabled process-wide with Enable and torn down with Disable.
// While a session is active, Start opens a span and returns a context that
// parents any span started beneath it, so one sweep produces a tree
//
//	sweep.run → sweep.cell → sim.run → fl.round → fl.client → tensor kernels
//
// Ending a span appends one JSONL event to the session's trace writer:
//
//	{"t":"meta","schema":1,"program":"oasis-sweep","goos":"linux","cpus":8,"start":"…"}
//	{"t":"span","id":7,"parent":3,"name":"fl.round","start_us":1042,"dur_us":3567,"attrs":{"round":2}}
//	{"t":"metrics","counters":{…},"gauges":{…},"histograms":{…}}
//
// Events are written on span end (the stream is end-time ordered); Disable
// appends a final "metrics" event with every registered metric's last value.
// Span emission is goroutine-safe: IDs come from one atomic counter and the
// writer is serialized under the session mutex, so any io.Writer may back a
// trace. ReadTrace parses a stream back into events and SummarizeSpans
// rebuilds the per-phase aggregate a live Summary would have produced —
// cmd/oasis-trace is a thin wrapper over the two.
//
// # Metrics
//
// NewCounter, NewGauge, and NewHistogram register named instruments in a
// process-global registry (registration is idempotent by name, so package-
// level instrument variables are safe under repeated test binaries).
// Histograms use fixed, declared bucket layouts (DefDurationBucketsMS for
// millisecond durations), so two machines' streams aggregate cell-for-cell.
// Snapshot returns every instrument's current value; Enable zeroes them all,
// giving each session a clean window.
//
// # The determinism contract
//
// Instrumentation is safe to leave in simulation code because the package
// guarantees, by construction:
//
//   - Off-by-default and nil-cheap. With no session enabled, Start performs
//     one atomic pointer load and returns a nil *Span whose methods are
//     no-ops; Counter.Add / Gauge.Set / Histogram.Observe perform one atomic
//     load and return. No time.Now, no allocation, no lock. The measured
//     disabled-path cost of a fully instrumented round is committed in
//     BENCH_obs.json (< 2% of round wall-clock).
//   - No RNG contact. The package never reads math/rand (v1 or v2) streams,
//     never seeds anything, and instrumented call sites must not move any
//     RNG draw across an Enable boundary; reports therefore stay
//     bit-identical whether or not a trace is being recorded.
//   - Report bytes are untouched. Report/SweepReport gain trace content only
//     through their *TraceSummary field, which the CLIs populate only while
//     a session is enabled; with tracing disabled the emitted JSON is
//     byte-identical to a build without this package (pinned by golden tests
//     in internal/sim and internal/experiments).
//
// Wall-clock span durations are inherently machine-dependent: a trace stream
// is diagnostic output, not part of any determinism guarantee. Everything
// that is compared across runs (reports, replicate seeds, histories) stays
// outside it.
//
// That split is enforced mechanically: this package is the only place
// allowed to read the wall clock, and every Start must reach End on all
// paths so trace streams stay well-formed span trees. The walltime and
// spanpair analyzers in internal/analysis check both rules in CI; the full
// determinism contract is written up in the "Static analysis" section of
// the repository README.
//
// # Debug endpoint
//
// ServeDebug exposes /debug/metrics (the Snapshot as JSON), /debug/summary
// (the live TraceSummary), and the standard /debug/pprof/ handlers on a
// dedicated mux, so a long sweep can be profiled (CPU, heap, blocking)
// without restarting it. The oasis-sim, oasis-sweep, and oasis-fl commands
// wire it to their -http flag.
package obs
