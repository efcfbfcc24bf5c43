package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	rand "math/rand/v2"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/oasisfl/oasis/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oasis-benchmark: ")
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Uint64("seed", 1, "seed every scenario seed derives from")
	seconds := flag.Float64("seconds", 20, "how long the timed runs last, in seconds")
	trace := flag.Int("trace", 0, "1 measures the per-layer metrics in a traced pass; 0 the end-to-end metrics")
	flag.Parse()
	w := workloadByName(*name)
	if w == nil || flag.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	res, err := bench(context.Background(), w, config{
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		size:   fullSize,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, p := range res.problems {
		log.Printf("check failed: %s", p)
	}
	if err := writeResult(os.Stdout, w.name, res); err != nil {
		log.Fatal(err)
	}
	if len(res.problems) > 0 {
		os.Exit(1)
	}
}

type config struct {
	seed   uint64
	budget time.Duration
	trace  bool
	size   size
}

// result is one invocation's outcome: the metrics of its mode, the
// operations its timed runs attempted and failed, and the output checks that
// did not hold.
type result struct {
	metrics           []metric
	attempted, failed int
	problems          []string
}

func (r *result) tally(runs []runSample) {
	for _, s := range runs {
		r.attempted += s.out.attempted
		r.failed += s.out.failed
		r.problems = append(r.problems, s.out.problems...)
	}
}

// bench runs one workload: an untimed reference run that also probes the
// heap, then timed runs for the budget. With tracing it splits the budget
// between untraced runs and the same seeds re-run under an obs session, and
// reports the per-layer metrics instead of the end-to-end ones.
func bench(ctx context.Context, w *workload, cfg config) (result, error) {
	var res result
	probe := newHeapProbe(w.prefix)
	ref, err := w.reference(ctx, runSeed(cfg.seed, 0), cfg.size, probe)
	if err != nil {
		return res, fmt.Errorf("%s reference run: %w", w.name, err)
	}
	budget, minSteps := cfg.budget, cfg.size.minSteps
	if cfg.trace {
		budget, minSteps = budget/2, 0 // step percentiles are not reported
	}
	plain, err := measure(ctx, w, cfg, budget, minSteps, false)
	if err != nil {
		return res, err
	}
	res.tally(plain)
	if !bytes.Equal(ref, plain[0].out.report) {
		res.problems = append(res.problems, fmt.Sprintf("%s run 0: report differs from the reference run's", w.name))
	}
	if !cfg.trace {
		res.metrics = endToEnd(plain, probe.peak)
		return res, nil
	}

	var buf bytes.Buffer
	if _, err := obs.Enable(obs.Config{Program: "oasis-benchmark", Trace: &buf}); err != nil {
		return res, err
	}
	traced, err := measure(ctx, w, cfg, budget, 0, true)
	summary, derr := obs.Disable()
	if err := errors.Join(err, derr); err != nil {
		return res, err
	}
	res.tally(traced)
	for i := range min(len(plain), len(traced)) {
		if !bytes.Equal(plain[i].out.report, traced[i].out.report) {
			res.problems = append(res.problems, fmt.Sprintf("%s run %d: traced report differs from the untraced one", w.name, i))
		}
	}
	events, err := obs.ReadTrace(&buf)
	if err != nil {
		return res, err
	}
	res.metrics = perLayer(w, newSpanTree(spansOf(events)), summary, plain, traced)
	return res, nil
}

// measure makes timed runs 0, 1, … until the wall-clock budget is spent and
// the runs hold at least minSteps steps. A run starts only if the mean run so
// far would end within the budget; there is always at least one. The
// machine's speed is calibrated before the first run and after each one.
//
//oasis:allow-walltime the benchmark times the program from outside
func measure(ctx context.Context, w *workload, cfg config, budget time.Duration, minSteps int, traced bool) ([]runSample, error) {
	var runs []runSample
	var wall time.Duration
	steps := 0
	start := time.Now()
	before := calibrate()
	for i := 0; ; i++ {
		if i > 0 && steps >= minSteps && time.Since(start)+wall/time.Duration(i) > budget {
			return runs, nil
		}
		// Start every run from a collected heap, so that garbage from the
		// previous run or the calibration costs it no GC time.
		runtime.GC()
		s, err := timedRun(ctx, w, cfg, i, traced)
		if err != nil {
			return nil, err
		}
		after := calibrate()
		s.speed = refCalibrationCPU / ((before + after) / 2)
		before = after
		runs = append(runs, s)
		wall += s.wall
		steps += len(s.steps)
	}
}

func timedRun(ctx context.Context, w *workload, cfg config, i int, traced bool) (runSample, error) {
	if traced {
		var sp *obs.Span
		ctx, sp = obs.Start(ctx, runSpan, obs.String("workload", w.name), obs.Int("run", i))
		defer sp.End()
	}
	clk := newProgressClock(w.prefix)
	clk.begin()
	out, err := w.run(ctx, runSeed(cfg.seed, i), cfg.size, clk, traced)
	if err != nil {
		return runSample{}, fmt.Errorf("%s run %d: %w", w.name, i, err)
	}
	s, err := clk.finish(out)
	if err != nil {
		return runSample{}, fmt.Errorf("%s run %d: %w", w.name, i, err)
	}
	return s, nil
}

// runSeed derives timed run i's scenario seed from the benchmark seed.
func runSeed(seed uint64, i int) uint64 {
	return rand.New(rand.NewPCG(seed, uint64(i))).Uint64()
}

// writeResult prints one "<workload> <metric> <value> <unit>" line per
// metric, with the sample count of timings, then the result as one JSON
// object on the last line.
func writeResult(out io.Writer, workload string, res result) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.metrics))
	for _, m := range res.metrics {
		line := fmt.Sprintf("%s %s %v %s", workload, m.name, m.value, m.unit)
		if m.n > 0 {
			line += fmt.Sprintf(" (n=%d)", m.n)
		}
		if _, err := fmt.Fprintln(out, line); err != nil {
			return err
		}
		metrics[m.name] = value{m.value, m.unit}
	}
	raw, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", raw)
	return err
}
