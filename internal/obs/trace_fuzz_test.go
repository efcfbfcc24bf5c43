package obs

import (
	"bytes"
	"testing"
)

// FuzzReadTrace: oasis-trace reads files some other run wrote, possibly
// torn or edited, so ReadTrace must turn any bytes into events or an error,
// never a panic, and neither SpanTreeValid nor SummarizeSpans may panic on
// the events it accepts. The summary's phases account for every span event.
// The corpus starts from a short real stream, the same stream torn mid-line,
// a meta event of another schema, and a span with id 0. Run beyond it with:
//
//	go test -run '^$' -fuzz FuzzReadTrace -fuzztime 10s -fuzzminimizetime 1x ./internal/obs
func FuzzReadTrace(f *testing.F) {
	stream := []byte(`{"t":"meta","schema":1,"program":"oasis-sim","goos":"linux","goarch":"amd64","cpus":2,"start":"2026-01-02T03:04:05Z"}
{"t":"span","id":2,"parent":1,"name":"sim.materialize","start_us":178,"dur_us":139,"attrs":{"clients":12}}
{"t":"span","id":3,"parent":1,"name":"sim.calibrate_attack","start_us":358,"dur_us":2362,"attrs":{"attack":"rtf"}}
{"t":"span","id":1,"name":"sim.run","start_us":0,"dur_us":4100}

{"t":"metrics","final":true,"counters":{"fl_rounds_total":4},"gauges":{"fl_round_workers":2},"histograms":{"fl_client_ms":{"count":24,"sum":2.76,"mean":0.115,"buckets":[{"le":"0.05","n":2},{"le":"0.1","n":9}]}}}
`)
	f.Add(stream)
	f.Add(stream[:len(stream)/2])
	f.Add([]byte(`{"t":"meta","schema":99,"program":"future"}` + "\n"))
	f.Add([]byte(`{"t":"span","id":0,"name":"orphan","dur_us":-5}` + "\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		events, err := ReadTrace(bytes.NewReader(raw))
		if err != nil {
			return
		}
		_, _ = SpanTreeValid(events)
		spans := int64(0)
		for _, ev := range events {
			if ev.Type == "span" {
				spans++
			}
		}
		var counted int64
		for _, p := range SummarizeSpans(events).Phases {
			counted += p.Count
		}
		if counted != spans {
			t.Fatalf("summary counts %d spans, the stream holds %d", counted, spans)
		}
	})
}
