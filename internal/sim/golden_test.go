package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/oasisfl/oasis/internal/obs"
)

// goldenPresets are the scenarios whose quick-mode report JSON is pinned
// byte-for-byte in testdata/. All but cross-device-1M were generated by the
// eager materializing engine before the virtual-client rewrite, so they are
// the proof that lazy cohort materialization changed memory behavior and
// nothing else; cross-device-1M pins the million-client cohort sampling
// path, which no eager engine could run. Regenerate (only when a
// report-schema change is intentional) with:
//
//	OASIS_REGEN_GOLDEN=1 go test ./internal/sim -run TestReportGoldenBytes
var goldenPresets = []string{"smoke", "cross-device-1k", "flaky-hospital", "adversarial-burst", "cross-device-1M"}

func goldenPath(preset string) string {
	return filepath.Join("testdata", "golden-"+preset+"-report.json")
}

// TestReportGoldenBytes pins the engine's determinism contract at its
// sharpest edge: with no obs session enabled, each pinned preset's quick-mode
// report JSON must be byte-identical to the golden file generated by the
// pre-virtual-client eager engine. Any RNG contact, field reordering,
// membership reshuffle, or accidental summary embedding breaks this test.
func TestReportGoldenBytes(t *testing.T) {
	for _, preset := range goldenPresets {
		t.Run(preset, func(t *testing.T) {
			sc, ok := Preset(preset)
			if !ok {
				t.Fatalf("%s preset not registered", preset)
			}
			report, err := Run(sc, Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			raw, err := report.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if os.Getenv("OASIS_REGEN_GOLDEN") != "" {
				if err := os.WriteFile(goldenPath(preset), raw, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("regenerated %s (%d bytes)", goldenPath(preset), len(raw))
				return
			}
			golden, err := os.ReadFile(goldenPath(preset))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, golden) {
				t.Errorf("%s report JSON diverged from the eager-engine golden (%d vs %d bytes):\n%s",
					preset, len(raw), len(golden), diffHint(raw, golden))
			}
		})
	}
}

// TestReportBytesTraceOnVsOff is the differential leg of the same contract:
// running the identical scenario with a live obs session (spans, counters,
// histograms all firing) must leave the engine-produced report bytes
// untouched — only CLIs may embed a summary, and only into their own copy.
func TestReportBytesTraceOnVsOff(t *testing.T) {
	sc, ok := Preset("smoke")
	if !ok {
		t.Fatal("smoke preset not registered")
	}
	runJSON := func() []byte {
		report, err := Run(sc, Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := report.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	off := runJSON()
	var trace bytes.Buffer
	if _, err := obs.Enable(obs.Config{Program: "sim-test", Trace: &trace}); err != nil {
		t.Fatal(err)
	}
	on := runJSON()
	if _, err := obs.Disable(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off, on) {
		t.Errorf("report JSON differs with tracing enabled:\n%s", diffHint(on, off))
	}
	if trace.Len() == 0 {
		t.Error("traced run emitted no events — instrumentation is dead")
	}
	events, err := obs.ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.SpanTreeValid(events); err != nil {
		t.Error(err)
	}
}

// diffHint locates the first differing byte for a readable failure message.
func diffHint(got, want []byte) string {
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			lo := max(0, i-80)
			return "first divergence at byte " + itoa(i) +
				"\n got: …" + string(got[lo:min(len(got), i+80)]) +
				"\nwant: …" + string(want[lo:min(len(want), i+80)])
		}
	}
	return "one report is a prefix of the other"
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for ; i > 0; i /= 10 {
		b = append([]byte{byte('0' + i%10)}, b...)
	}
	return string(b)
}
