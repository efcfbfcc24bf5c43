package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Schema identifies the trace event layout; bump when fields change meaning.
const Schema = 1

// current holds the active session; nil means observability is disabled.
// Every hot-path guard is one load of this pointer.
var current atomic.Pointer[Session]

// Enabled reports whether a session is active. Call sites that need to do
// preparatory work before emitting (e.g. take a timestamp for a histogram)
// should guard on it; plain Start/Add/Observe calls self-guard.
func Enabled() bool { return current.Load() != nil }

// Config shapes a session.
type Config struct {
	// Program labels the stream's meta event (usually the CLI name).
	Program string
	// Trace receives the JSONL event stream; nil records metrics and the
	// in-memory phase summary only (the -http endpoint still works).
	Trace io.Writer
}

// Session is one enabled observability window: a span ID allocator, a phase
// aggregator, and an optional JSONL sink. At most one session is active at a
// time.
type Session struct {
	program string
	start   time.Time
	nextID  atomic.Uint64

	mu     sync.Mutex
	out    io.Writer
	closed bool
	phases map[string]*phaseStat
	werr   error // first write error, surfaced by Disable
}

// phaseStat aggregates all spans sharing one name.
type phaseStat struct {
	count int64
	total time.Duration
	max   time.Duration
}

// Enable activates observability: metrics are zeroed, the meta event is
// written, and subsequent Start/Add/Observe calls record into the session.
// It fails if a session is already active — nested enablement would make the
// stream's ownership ambiguous.
func Enable(cfg Config) (*Session, error) {
	s := &Session{
		program: cfg.Program,
		start:   time.Now(),
		out:     cfg.Trace,
		phases:  make(map[string]*phaseStat),
	}
	if !current.CompareAndSwap(nil, s) {
		return nil, fmt.Errorf("obs: a session is already enabled")
	}
	resetMetrics()
	s.emit(metaEvent{
		Type: "meta", Schema: Schema, Program: cfg.Program,
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU(),
		Start: s.start.Format(time.RFC3339Nano),
	})
	return s, nil
}

// Disable ends the active session: a final metrics event is appended to the
// stream and the phase summary is returned (nil if nothing was enabled). The
// error is the first trace-write failure, if any — callers that persist
// traces to disk should check it.
func Disable() (*TraceSummary, error) {
	s := current.Swap(nil)
	if s == nil {
		return nil, nil
	}
	snap := Snapshot()
	sum := s.summary(snap)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.emitLocked(metricsEvent{Type: "metrics", Final: true,
		Counters: snap.Counters, Gauges: snap.Gauges, Histograms: snap.Histograms})
	return sum, s.werr
}

// Summary returns the active session's phase aggregates and metric values,
// or nil when disabled. It may be called while spans are still being
// recorded (the sweep CLIs call it between the run and the report write).
func Summary() *TraceSummary {
	s := current.Load()
	if s == nil {
		return nil
	}
	return s.summary(Snapshot())
}

func (s *Session) summary(snap MetricsSnapshot) *TraceSummary {
	s.mu.Lock()
	names := make([]string, 0, len(s.phases))
	for name := range s.phases {
		names = append(names, name)
	}
	sort.Strings(names)
	sum := &TraceSummary{Program: s.program}
	for _, name := range names {
		p := s.phases[name]
		sum.Phases = append(sum.Phases, PhaseSummary{
			Name:    name,
			Count:   p.count,
			TotalMS: durMS(p.total),
			MeanMS:  durMS(p.total / time.Duration(p.count)),
			MaxMS:   durMS(p.max),
		})
	}
	s.mu.Unlock()
	sum.Counters = snap.Counters
	sum.Gauges = snap.Gauges
	sum.Histograms = snap.Histograms
	return sum
}

// Attr is one span annotation. Values must be JSON-encodable; the helpers
// below cover the types instrumentation actually uses.
type Attr struct {
	Key   string
	Value any
}

// String annotates a span with a string value.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int annotates a span with an integer value.
func Int(k string, v int) Attr { return Attr{Key: k, Value: v} }

// Uint64 annotates a span with a uint64 value (seeds, IDs).
func Uint64(k string, v uint64) Attr { return Attr{Key: k, Value: v} }

// Bool annotates a span with a boolean value.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Span is one open tracing interval. A nil *Span (what Start returns while
// disabled) is a valid receiver for every method, so call sites need no
// guards.
type Span struct {
	s      *Session
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  map[string]any
}

// spanCtxKey carries the enclosing span's ID through a context.
type spanCtxKey struct{}

// Start opens a span under the span carried by ctx (root when none) and
// returns a derived context that parents nested spans. While no session is
// enabled it is one atomic load: ctx comes back unchanged and the nil span
// makes every later call a no-op.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	s := current.Load()
	if s == nil {
		return ctx, nil
	}
	sp := &Span{s: s, id: s.nextID.Add(1), name: name, start: time.Now()}
	if parent, ok := ctx.Value(spanCtxKey{}).(uint64); ok {
		sp.parent = parent
	}
	sp.setAttrs(attrs)
	return context.WithValue(ctx, spanCtxKey{}, sp.id), sp
}

// SetAttr annotates an open span (no-op on nil). Not goroutine-safe against
// a concurrent End of the same span — annotate before handing a span off.
func (sp *Span) SetAttr(attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.setAttrs(attrs)
}

func (sp *Span) setAttrs(attrs []Attr) {
	if len(attrs) == 0 {
		return
	}
	if sp.attrs == nil {
		sp.attrs = make(map[string]any, len(attrs))
	}
	for _, a := range attrs {
		sp.attrs[a.Key] = a.Value
	}
}

// End closes the span: its duration folds into the session's per-phase
// aggregate and one span event is appended to the trace stream. End on a nil
// span is a no-op; End after the session was disabled only drops the event.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	dur := time.Since(sp.start)
	s := sp.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	p := s.phases[sp.name]
	if p == nil {
		p = &phaseStat{}
		s.phases[sp.name] = p
	}
	p.count++
	p.total += dur
	if dur > p.max {
		p.max = dur
	}
	s.emitLocked(spanEvent{
		Type: "span", ID: sp.id, Parent: sp.parent, Name: sp.name,
		StartUS: sp.start.Sub(s.start).Microseconds(),
		DurUS:   dur.Microseconds(),
		Attrs:   sp.attrs,
	})
}

// emit serializes one event onto the stream (lock taken here).
func (s *Session) emit(ev any) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emitLocked(ev)
}

// emitLocked writes one JSONL line; the caller holds s.mu.
func (s *Session) emitLocked(ev any) {
	if s.out == nil {
		return
	}
	raw, err := json.Marshal(ev)
	if err == nil {
		raw = append(raw, '\n')
		_, err = s.out.Write(raw)
	}
	if err != nil && s.werr == nil {
		s.werr = err
	}
}

// durMS converts a duration to milliseconds with microsecond resolution.
func durMS(d time.Duration) float64 {
	return float64(d.Microseconds()) / 1000
}
