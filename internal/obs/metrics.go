package obs

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// The typed metric registry. Instruments are package-level variables at
// their call sites, registered once by name; values accumulate only while a
// session is enabled (every mutation self-guards on the session pointer, one
// atomic load) and Enable zeroes them so each session is a clean window.

var registry = struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}{
	counters: make(map[string]*Counter),
	gauges:   make(map[string]*Gauge),
	hists:    make(map[string]*Histogram),
}

// Counter is a monotonically increasing int64 instrument.
type Counter struct {
	name string
	help string
	v    atomic.Int64
}

// NewCounter registers (or returns the already-registered) counter.
func NewCounter(name, help string) *Counter {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if c, ok := registry.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	registry.counters[name] = c
	return c
}

// Add increments the counter while a session is enabled (one atomic load
// otherwise).
func (c *Counter) Add(n int64) {
	if current.Load() == nil {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a set-to-current-value float64 instrument (worker counts, pool
// sizes).
type Gauge struct {
	name string
	help string
	bits atomic.Uint64
}

// NewGauge registers (or returns the already-registered) gauge.
func NewGauge(name, help string) *Gauge {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if g, ok := registry.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	registry.gauges[name] = g
	return g
}

// Set records the gauge's current value while a session is enabled.
func (g *Gauge) Set(v float64) {
	if current.Load() == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DefDurationBucketsMS is the fixed bucket layout for millisecond-duration
// histograms. The layout is part of the trace schema: streams from different
// machines aggregate cell-for-cell only because every build buckets
// identically.
var DefDurationBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram is a fixed-bucket distribution instrument. Bounds are upper
// bucket edges in ascending order; observations above the last bound land in
// an implicit overflow bucket.
type Histogram struct {
	name    string
	help    string
	bounds  []float64
	buckets []atomic.Int64 // len(bounds)+1, cumulative at snapshot time only
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bit pattern, CAS-accumulated
}

// NewHistogram registers (or returns the already-registered) histogram over
// the given ascending bucket bounds.
func NewHistogram(name, help string, bounds []float64) *Histogram {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if h, ok := registry.hists[name]; ok {
		return h
	}
	h := &Histogram{
		name: name, help: help,
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Int64, len(bounds)+1),
	}
	registry.hists[name] = h
	return h
}

// Observe records one value while a session is enabled.
func (h *Histogram) Observe(v float64) {
	if current.Load() == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// BucketCount is one histogram cell in a snapshot. LE is the bucket's upper
// bound rendered as a string ("+Inf" for the overflow bucket) so the layout
// survives JSON, which cannot encode infinities.
type BucketCount struct {
	LE string `json:"le"`
	N  int64  `json:"n"`
}

// HistogramSnapshot is one histogram's state: total count, sum, mean, and
// the non-empty buckets.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	Mean    float64       `json:"mean"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func (h *Histogram) snapshot() HistogramSnapshot {
	snap := HistogramSnapshot{Count: h.count.Load(), Sum: math.Float64frombits(h.sumBits.Load())}
	if snap.Count > 0 {
		snap.Mean = snap.Sum / float64(snap.Count)
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := "+Inf"
		if i < len(h.bounds) {
			le = strconv.FormatFloat(h.bounds[i], 'g', -1, 64)
		}
		snap.Buckets = append(snap.Buckets, BucketCount{LE: le, N: n})
	}
	return snap
}

// MetricsSnapshot is every registered instrument's current value. Maps are
// keyed by instrument name; encoding/json renders them key-sorted.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures every registered metric of the enabled session.
// Zero-valued instruments are omitted so a snapshot shows what actually
// happened, not the registry. With no session enabled it is empty: the
// instruments keep the last session's values until the next Enable resets
// them, and those belong to a session that has ended.
func Snapshot() MetricsSnapshot {
	if !Enabled() {
		return MetricsSnapshot{}
	}
	return snapshot()
}

// snapshot is Snapshot regardless of the session, for Disable's final
// metrics event.
func snapshot() MetricsSnapshot {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	snap := MetricsSnapshot{}
	for name, c := range registry.counters {
		if v := c.Value(); v != 0 {
			if snap.Counters == nil {
				snap.Counters = make(map[string]int64)
			}
			snap.Counters[name] = v
		}
	}
	for name, g := range registry.gauges {
		if v := g.Value(); v != 0 {
			if snap.Gauges == nil {
				snap.Gauges = make(map[string]float64)
			}
			snap.Gauges[name] = v
		}
	}
	for name, h := range registry.hists {
		if h.count.Load() == 0 {
			continue
		}
		if snap.Histograms == nil {
			snap.Histograms = make(map[string]HistogramSnapshot)
		}
		snap.Histograms[name] = h.snapshot()
	}
	return snap
}

// resetMetrics zeroes every registered instrument (session start).
func resetMetrics() {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	for _, c := range registry.counters {
		c.v.Store(0)
	}
	for _, g := range registry.gauges {
		g.bits.Store(0)
	}
	for _, h := range registry.hists {
		h.count.Store(0)
		h.sumBits.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}
