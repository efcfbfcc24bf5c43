package main

import (
	"cmp"
	"slices"

	"github.com/oasisfl/oasis/internal/obs"
)

// runSpan names the span the benchmark opens around each traced run.
const runSpan = "bench.run"

// span is one closed obs span, in microseconds since the session began.
type span struct {
	id, parent uint64
	name       string
	start, end int64
}

func spansOf(events []obs.Event) []span {
	var spans []span
	for _, ev := range events {
		if ev.Type == "span" {
			spans = append(spans, span{id: ev.ID, parent: ev.Parent, name: ev.Name, start: ev.StartUS, end: ev.StartUS + ev.DurUS})
		}
	}
	return spans
}

// spanTree indexes a trace's spans by parent and by name.
type spanTree struct {
	spans    []span
	children map[uint64][]int
	byName   map[string][]int
}

// newSpanTree indexes spans. The program opens some spans from
// context.Background — RunSweep's sweep.run and the sampled tensor kernels —
// so they have no parent; one that lies inside a benchmark run span is
// adopted by that run, so each run's tree holds everything that ran in it.
func newSpanTree(spans []span) *spanTree {
	var runs []span
	for _, s := range spans {
		if s.name == runSpan {
			runs = append(runs, s)
		}
	}
	t := &spanTree{spans: spans, children: make(map[uint64][]int), byName: make(map[string][]int)}
	for i := range spans {
		s := &spans[i]
		if s.parent == 0 && s.name != runSpan {
			for _, r := range runs {
				if r.start <= s.start && s.end <= r.end {
					s.parent = r.id
					break
				}
			}
		}
		t.children[s.parent] = append(t.children[s.parent], i)
		t.byName[s.name] = append(t.byName[s.name], i)
	}
	return t
}

// self is a span's duration minus the part of it its children cover.
// Children may overlap one another (clients train concurrently), so the
// covered part is the union of their intervals, not the sum.
func (t *spanTree) self(i int) int64 {
	s := t.spans[i]
	return s.end - s.start - covered(t.intervals(t.children[s.id]), s.start, s.end)
}

// coverage is the share of a run span's duration during which at least one
// program phase — a span two levels below the run, under the program's own
// top-level span — was open.
func (t *spanTree) coverage(run int) float64 {
	r := t.spans[run]
	var phases []int
	for _, top := range t.children[r.id] {
		phases = append(phases, t.children[t.spans[top].id]...)
	}
	return ratio(float64(covered(t.intervals(phases), r.start, r.end)), float64(r.end-r.start))
}

func (t *spanTree) intervals(idx []int) [][2]int64 {
	ivs := make([][2]int64, len(idx))
	for k, i := range idx {
		ivs[k] = [2]int64{t.spans[i].start, t.spans[i].end}
	}
	return ivs
}

// covered is the length of the union of the intervals, clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	ivs = slices.Clone(ivs)
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo // everything before cur is already counted
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// durMS lists the durations of every span with the name, in milliseconds.
func (t *spanTree) durMS(name string) []float64 {
	var out []float64
	for _, i := range t.byName[name] {
		out = append(out, float64(t.spans[i].end-t.spans[i].start)/1000)
	}
	return out
}

// selfMS lists the self times of every span with the name, in milliseconds.
func (t *spanTree) selfMS(name string) []float64 {
	var out []float64
	for _, i := range t.byName[name] {
		out = append(out, float64(t.self(i))/1000)
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// perLayer derives the per-layer metrics of a workload from its traced
// runs: the span tree and obs metrics they recorded, the proxy and
// checkpoint counts of proxied dist runs, and their wall time against the
// untraced runs at the same seeds, both at the reference speed. A layer the
// workload never reaches reads 0.
func perLayer(w *workload, t *spanTree, summary *obs.TraceSummary, plain, traced []runSample) []metric {
	runs := float64(len(traced))
	counter := func(name string) float64 { return float64(summary.Counters[name]) }
	hist := func(name string) obs.HistogramSnapshot { return summary.Histograms[name] }
	spanMS := func(name string, xs []float64, value float64) metric {
		return metric{name: name, unit: "ms", value: value, n: len(xs)}
	}

	var jobs, wireBytes, ckptBytes float64
	var turnarounds []float64
	for _, r := range traced {
		if r.out.wire == nil {
			continue
		}
		jobs += float64(r.out.ops)
		wireBytes += float64(r.out.wire.bytes)
		ckptBytes += float64(r.out.checkpointBytes)
		for _, d := range r.out.wire.turnarounds {
			turnarounds = append(turnarounds, ms(d))
		}
	}
	var plainWall, tracedWall float64
	for i := range min(len(plain), len(traced)) {
		plainWall += plain[i].wall.Seconds() * plain[i].speed
		tracedWall += traced[i].wall.Seconds() * traced[i].speed
	}
	minCoverage := 0.0
	for k, i := range t.byName[runSpan] {
		if c := t.coverage(i); k == 0 || c < minCoverage {
			minCoverage = c
		}
	}

	materialize, calibrateAttack, score := t.durMS("sim.materialize"), t.durMS("sim.calibrate_attack"), t.durMS("sim.score")
	roundSelf, afterRound := t.selfMS("fl.round"), t.selfMS("fl.after_round")
	client, round, aggregate := t.durMS("fl.client"), t.durMS("fl.round"), t.durMS("fl.aggregate")
	cell, sweepLease, merge := t.durMS("sweep.cell"), t.durMS("sweep.lease"), t.durMS("sweep.merge")
	distLease := t.durMS("dist.lease")
	defense, reconstruct, kernel := hist("sim_defense_apply_ms"), hist("sim_attack_reconstruct_ms"), hist("tensor_kernel_ms")
	hits, misses := counter("tensor_pool_hit_total"), counter("tensor_pool_miss_total")

	return []metric{
		spanMS("sim.materialize_ms", materialize, mean(materialize)),
		spanMS("sim.calibrate_attack_ms", calibrateAttack, mean(calibrateAttack)),
		spanMS("sim.score_ms", score, mean(score)),
		spanMS("fl.round_self_ms", roundSelf, percentile(roundSelf, 50)),
		spanMS("fl.after_round_ms", afterRound, percentile(afterRound, 50)),
		{name: "fl.client_busy_ratio", unit: "ratio", value: ratio(sum(client), sum(round)*float64(w.roundWorkers))},
		spanMS("fl.client_ms", client, mean(client)),
		spanMS("fl.aggregate_ms", aggregate, percentile(aggregate, 50)),
		{name: "defense.apply_ms", unit: "ms", value: defense.Mean, n: int(defense.Count)},
		{name: "defense.apply_count", unit: "count", value: ratio(counter("sim_defense_apply_total"), runs)},
		{name: "attack.reconstruct_ms", unit: "ms", value: reconstruct.Mean, n: int(reconstruct.Count)},
		{name: "tensor.kernel_ms", unit: "ms", value: ratio(kernel.Sum, runs), n: int(kernel.Count)},
		{name: "tensor.kernel_share", unit: "ratio", value: ratio(kernel.Sum, sum(client))},
		{name: "tensor.parallel_dispatches", unit: "count", value: ratio(counter("tensor_dispatch_parallel_total"), runs)},
		{name: "tensor.pool_miss_ratio", unit: "ratio", value: ratio(misses, hits+misses)},
		spanMS("sweep.cell_ms", cell, percentile(cell, 50)),
		spanMS("sweep.lease_wait_ms", sweepLease, mean(sweepLease)),
		spanMS("sweep.merge_ms", merge, mean(merge)),
		spanMS("dist.lease_wait_ms", distLease, mean(distLease)),
		spanMS("dist.turnaround_ms", turnarounds, percentile(turnarounds, 50)),
		{name: "dist.wire_bytes_per_job", unit: "B", value: ratio(wireBytes, jobs)},
		{name: "dist.checkpoint_bytes_per_job", unit: "B", value: ratio(ckptBytes, jobs)},
		{name: "dist.released", unit: "count", value: counter("dist_released_total")},
		{name: "dist.duplicate_results", unit: "count", value: counter("dist_duplicate_results_total")},
		{name: "span_coverage_pct", unit: "%", value: 100 * minCoverage, n: len(traced)},
		{name: "trace_overhead_pct", unit: "%", value: 100 * (ratio(tracedWall, plainWall) - 1), n: min(len(plain), len(traced))},
	}
}
