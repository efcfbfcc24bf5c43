package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// disable tears the active session down between tests regardless of outcome.
func disable(t *testing.T) {
	t.Helper()
	t.Cleanup(func() { Disable() }) //nolint:errcheck
}

func TestDisabledIsInert(t *testing.T) {
	if Enabled() {
		t.Fatal("no session should be active at test start")
	}
	ctx := context.Background()
	ctx2, sp := Start(ctx, "phantom", Int("x", 1))
	if sp != nil {
		t.Fatal("disabled Start must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("disabled Start must return the context unchanged")
	}
	sp.SetAttr(String("k", "v"))
	sp.End() // must not panic
	c := NewCounter("test_disabled_counter", "")
	c.Add(5)
	if c.Value() != 0 {
		t.Fatalf("disabled counter accumulated %d", c.Value())
	}
	h := NewHistogram("test_disabled_hist", "", DefDurationBucketsMS)
	h.Observe(3)
	if got := Snapshot(); len(got.Counters) != 0 || len(got.Histograms) != 0 {
		t.Fatalf("disabled snapshot not empty: %+v", got)
	}
	if Summary() != nil {
		t.Fatal("disabled Summary must be nil")
	}
	if sum, err := Disable(); sum != nil || err != nil {
		t.Fatalf("Disable without session = (%v, %v), want (nil, nil)", sum, err)
	}
}

func TestSpanTreeAndStream(t *testing.T) {
	disable(t)
	var buf bytes.Buffer
	if _, err := Enable(Config{Program: "obs-test", Trace: &buf}); err != nil {
		t.Fatal(err)
	}
	if _, err := Enable(Config{}); err == nil {
		t.Fatal("double Enable must fail")
	}

	c := NewCounter("test_stream_counter", "")
	h := NewHistogram("test_stream_hist_ms", "", DefDurationBucketsMS)
	g := NewGauge("test_stream_gauge", "")
	g.Set(4)

	ctx, root := Start(context.Background(), "root", String("kind", "test"))
	for i := 0; i < 3; i++ {
		cctx, child := Start(ctx, "child", Int("i", i))
		_, leaf := Start(cctx, "leaf")
		c.Inc()
		h.Observe(float64(i) + 0.4)
		leaf.End()
		child.End()
	}
	root.End()

	sum, err := Disable()
	if err != nil {
		t.Fatal(err)
	}
	if sum == nil {
		t.Fatal("Disable after Enable must return a summary")
	}
	byName := map[string]PhaseSummary{}
	for _, p := range sum.Phases {
		byName[p.Name] = p
	}
	if byName["root"].Count != 1 || byName["child"].Count != 3 || byName["leaf"].Count != 3 {
		t.Fatalf("phase counts wrong: %+v", sum.Phases)
	}
	if sum.Counters["test_stream_counter"] != 3 {
		t.Fatalf("counter final = %d, want 3", sum.Counters["test_stream_counter"])
	}
	if sum.Gauges["test_stream_gauge"] != 4 {
		t.Fatalf("gauge final = %v, want 4", sum.Gauges["test_stream_gauge"])
	}
	if hs := sum.Histograms["test_stream_hist_ms"]; hs.Count != 3 {
		t.Fatalf("histogram count = %d, want 3", hs.Count)
	}

	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Type != "meta" || events[0].Program != "obs-test" {
		t.Fatalf("stream must open with the meta event, got %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Type != "metrics" || !last.Final {
		t.Fatalf("stream must close with the final metrics event, got %+v", last)
	}
	roots, err := SpanTreeValid(events)
	if err != nil {
		t.Fatal(err)
	}
	if roots != 1 {
		t.Fatalf("expected 1 root span, got %d", roots)
	}
	// Children must parent to the root's ID, and the leaf to its child.
	var rootID uint64
	for _, ev := range events {
		if ev.Type == "span" && ev.Name == "root" {
			rootID = ev.ID
		}
	}
	childIDs := map[uint64]bool{}
	for _, ev := range events {
		if ev.Type == "span" && ev.Name == "child" {
			if ev.Parent != rootID {
				t.Fatalf("child parent = %d, want root %d", ev.Parent, rootID)
			}
			childIDs[ev.ID] = true
		}
	}
	for _, ev := range events {
		if ev.Type == "span" && ev.Name == "leaf" && !childIDs[ev.Parent] {
			t.Fatalf("leaf parent %d is not a child span", ev.Parent)
		}
	}
	// Offline re-aggregation matches the live phase summary.
	resum := SummarizeSpans(events)
	for _, p := range resum.Phases {
		if p.Count != byName[p.Name].Count {
			t.Fatalf("replayed phase %q count %d != live %d", p.Name, p.Count, byName[p.Name].Count)
		}
	}
	if resum.Counters["test_stream_counter"] != 3 {
		t.Fatal("replayed final metrics lost the counter")
	}
}

func TestEnableResetsMetrics(t *testing.T) {
	disable(t)
	c := NewCounter("test_reset_counter", "")
	if _, err := Enable(Config{}); err != nil {
		t.Fatal(err)
	}
	c.Add(7)
	sum, err := Disable()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Counters["test_reset_counter"] != 7 {
		t.Fatalf("Disable's summary counter = %d, want 7", sum.Counters["test_reset_counter"])
	}
	if got := Snapshot(); len(got.Counters) != 0 {
		t.Fatalf("Snapshot after Disable = %+v, want empty: the session has ended", got)
	}
	if _, err := Enable(Config{}); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 0 {
		t.Fatalf("Enable must zero metrics, counter = %d", c.Value())
	}
}

func TestRegistrationIdempotent(t *testing.T) {
	a := NewCounter("test_idem", "first")
	b := NewCounter("test_idem", "second")
	if a != b {
		t.Fatal("re-registering a name must return the same instrument")
	}
}

func TestHistogramBuckets(t *testing.T) {
	disable(t)
	if _, err := Enable(Config{}); err != nil {
		t.Fatal(err)
	}
	h := NewHistogram("test_buckets", "", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 10, 11, 1e9} {
		h.Observe(v)
	}
	snap := h.snapshot()
	if snap.Count != 6 {
		t.Fatalf("count = %d, want 6", snap.Count)
	}
	want := map[string]int64{"1": 2, "10": 2, "+Inf": 2} // bounds are inclusive upper edges
	for _, b := range snap.Buckets {
		if b.N != want[b.LE] {
			t.Fatalf("bucket le=%s n=%d, want %d (all: %+v)", b.LE, b.N, want[b.LE], snap.Buckets)
		}
	}
}

func TestTraceWriteErrorSurfaces(t *testing.T) {
	disable(t)
	if _, err := Enable(Config{Trace: failingWriter{}}); err != nil {
		t.Fatal(err)
	}
	_, sp := Start(context.Background(), "x")
	sp.End()
	if _, err := Disable(); err == nil {
		t.Fatal("Disable must surface the write error")
	}
}

type failingWriter struct{}

func (failingWriter) Write(p []byte) (int, error) { return 0, fmt.Errorf("disk full") }

func TestDebugHandler(t *testing.T) {
	disable(t)
	if _, err := Enable(Config{Program: "handler-test"}); err != nil {
		t.Fatal(err)
	}
	NewCounter("test_http_counter", "").Add(2)
	_, sp := Start(context.Background(), "served")
	sp.End()

	addr, err := ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", path, resp.StatusCode)
		}
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal([]byte(get("/debug/metrics")), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["test_http_counter"] != 2 {
		t.Fatalf("metrics endpoint counter = %d, want 2", snap.Counters["test_http_counter"])
	}
	var sum TraceSummary
	if err := json.Unmarshal([]byte(get("/debug/summary")), &sum); err != nil {
		t.Fatal(err)
	}
	if len(sum.Phases) == 0 || sum.Phases[0].Name != "served" {
		t.Fatalf("summary endpoint phases = %+v", sum.Phases)
	}
	if !strings.Contains(get("/debug/pprof/"), "pprof") {
		t.Fatal("pprof index not served")
	}
}

// TestConcurrentEmission hammers span and metric emission from NumCPU
// goroutines (the sweep's CellWorkers shape) and validates the resulting
// stream — this is the obs half of the race-tier coverage the sweep
// differential test exercises end to end.
func TestConcurrentEmission(t *testing.T) {
	disable(t)
	var buf syncBuffer
	if _, err := Enable(Config{Program: "race", Trace: &buf}); err != nil {
		t.Fatal(err)
	}
	c := NewCounter("test_race_counter", "")
	h := NewHistogram("test_race_hist", "", DefDurationBucketsMS)
	workers := runtime.NumCPU()
	if workers < 4 {
		workers = 4
	}
	const perWorker = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx, outer := Start(context.Background(), "worker", Int("w", w))
			for i := 0; i < perWorker; i++ {
				_, sp := Start(ctx, "unit")
				c.Inc()
				h.Observe(float64(i % 7))
				sp.End()
			}
			outer.End()
		}(w)
	}
	wg.Wait()
	sum, err := Disable()
	if err != nil {
		t.Fatal(err)
	}
	wantUnits := int64(workers * perWorker)
	if sum.Counters["test_race_counter"] != wantUnits {
		t.Fatalf("counter = %d, want %d", sum.Counters["test_race_counter"], wantUnits)
	}
	events, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("concurrent stream is corrupt: %v", err)
	}
	if _, err := SpanTreeValid(events); err != nil {
		t.Fatal(err)
	}
	var units int64
	for _, ev := range events {
		if ev.Type == "span" && ev.Name == "unit" {
			units++
		}
	}
	if units != wantUnits {
		t.Fatalf("stream holds %d unit spans, want %d", units, wantUnits)
	}
}

// syncBuffer is an io.Writer safe for the session's serialized writes while
// also being readable afterwards from the test goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Read(p)
}
