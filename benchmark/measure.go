package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"syscall"
	"time"
)

// progressClock is the io.Writer handed to a timed run as its progress log.
// Every line that starts with prefix marks one completed round or job, and
// the clock reads the process's CPU time there. Writes may come from several
// goroutines (the dist coordinator logs from one per worker connection).
type progressClock struct {
	prefix []byte

	mu         sync.Mutex
	wallStart  time.Time
	cpuStart   time.Duration
	allocStart uint64
	stamps     []time.Duration // CPU time since begin
}

func newProgressClock(prefix string) *progressClock {
	return &progressClock{prefix: []byte(prefix)}
}

// begin marks the moment the run's entry point is called.
//
//oasis:allow-walltime the budget and the tracing overhead are wall time
func (c *progressClock) begin() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.wallStart, c.cpuStart, c.allocStart = time.Now(), cpuTime(), allocBytes()
}

func (c *progressClock) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, c.prefix) {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.stamps = append(c.stamps, cpuTime()-c.cpuStart)
	}
	return len(p), nil
}

// cpuTime is the CPU time the process has used so far, user and system, over
// all its threads. Time the hypervisor steals from the machine, and time
// other processes run, is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the total the process has allocated on the heap so far.
func allocBytes() uint64 { return readMetric("/gc/heap/allocs:bytes") }

// readMetric reads one cumulative or gauge runtime metric of kind uint64.
func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// runSample is one timed run as seen from outside the program.
type runSample struct {
	setup time.Duration   // CPU time from the entry call to the first progress line
	cpu   time.Duration   // CPU time from the entry call to return
	steps []time.Duration // CPU time between consecutive progress lines
	wall  time.Duration   // wall time from the entry call to return
	alloc uint64          // heap bytes allocated from the entry call to return
	// speed scales this run's times to the reference speed: the
	// calibration's reference CPU time over its CPU time around the run.
	speed float64
	out   outcome
}

// finish closes the run that begin opened and returns what the clock saw.
//
//oasis:allow-walltime the budget and the tracing overhead are wall time
func (c *progressClock) finish(out outcome) (runSample, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := runSample{cpu: cpuTime() - c.cpuStart, wall: time.Since(c.wallStart), alloc: allocBytes() - c.allocStart, out: out}
	if len(c.stamps) == 0 {
		return s, fmt.Errorf("no progress line starting with %q", c.prefix)
	}
	s.setup = c.stamps[0]
	for i := 1; i < len(c.stamps); i++ {
		s.steps = append(s.steps, c.stamps[i]-c.stamps[i-1])
	}
	return s, nil
}

// heapProbe is the progress log of the untimed reference run, in which one
// worker leaves the program idle at every progress line. There it forces two
// GCs and reads the live heap, so its peak is the exact heap retained across
// rounds or jobs. The first GC moves idle sync.Pool buffers to the pools'
// victim caches and the second frees them, so buffers that happen to sit
// idle at that moment are not counted. A live-heap reading without the
// forced GCs shows only what the last GC cycle happened to see, which varied
// by a fifth from run to run.
type heapProbe struct {
	prefix []byte

	mu   sync.Mutex
	peak uint64
}

func newHeapProbe(prefix string) *heapProbe {
	return &heapProbe{prefix: []byte(prefix)}
}

func (h *heapProbe) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, h.prefix) {
		h.mu.Lock()
		defer h.mu.Unlock()
		runtime.GC()
		runtime.GC()
		h.peak = max(h.peak, readMetric("/gc/heap/live:bytes"))
	}
	return len(p), nil
}

// metric is one named measurement. n is the number of samples a timing
// summarizes (0 for counts and ratios).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// endToEnd summarizes a workload's untraced runs and its heap probe into the
// metrics a user of the system sees. Timings are CPU time at the reference
// speed; see the package documentation for why.
func endToEnd(runs []runSample, heapPeak uint64) []metric {
	var setups, rates, steps []float64
	var ops int
	var alloc uint64
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds()*r.speed)
		rates = append(rates, ratio(float64(r.out.ops), r.cpu.Seconds()*r.speed))
		for _, d := range r.steps {
			steps = append(steps, ms(d)*r.speed)
		}
		ops += r.out.ops
		alloc += r.alloc
	}
	return []metric{
		{"setup_s", "s", median(setups), len(setups)},
		{"ops_per_cpu_s", "1/s", median(rates), len(rates)},
		{"step_cpu_p50_ms", "ms", percentile(steps, 50), len(steps)},
		{"step_cpu_p90_ms", "ms", percentile(steps, 90), len(steps)},
		{"live_heap_peak_mb", "MB", float64(heapPeak) / 1e6, 0},
		{"alloc_kb_per_op", "KB", ratio(float64(alloc)/1e3, float64(ops)), 0},
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile: the smallest sample with
// at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n samples.
// The small slack keeps p·n/100 from rounding up past an exact integer
// (99.9% of 10000 is 9990, not 9991).
func rank(n int, p float64) int {
	return max(1, int(math.Ceil(p*float64(n)/100-1e-9)))
}

// tailSamples is how many samples must lie beyond a percentile before it is
// reported: fewer, and one slow outlier moves it.
const tailSamples = 10

// percentileLadder lists the percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9}

// highestPercentile is the highest percentile on the ladder with at least
// tailSamples of n samples beyond it, or 0 when even the median has fewer.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rank(n, p) >= tailSamples {
			best = p
		}
	}
	return best
}

// samplesFor is the smallest sample count at which highestPercentile reaches p.
func samplesFor(p float64) int {
	n := 1
	for highestPercentile(n) < p {
		n++
	}
	return n
}
