package experiments

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/oasisfl/oasis/internal/obs"
)

// goldenSweepConfig is the exact grid the committed golden file was generated
// from (first before the observability instrumentation existed, then again
// when the attack probe subsets moved to O(m) draws). Do not change it
// without regenerating the golden.
func goldenSweepConfig() SweepConfig {
	return SweepConfig{
		Attacks:    []string{"rtf"},
		Defenses:   []string{"none", "prune:0.3"},
		Replicates: 2,
		Quick:      true,
	}
}

// TestSweepGoldenBytes pins the sweep half of the determinism contract: with
// no obs session enabled, the grid's JSON must be byte-identical to the
// committed golden.
func TestSweepGoldenBytes(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden-sweep-report.json"))
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunSweep(goldenSweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, golden) {
		t.Errorf("sweep JSON diverged from the golden:\n got %d bytes\nwant %d bytes\n%s",
			len(raw), len(golden), raw)
	}
}

// TestSweepBytesTraceOnVsOff is the sweep differential: a live obs session —
// spans and metrics firing from the grid pool, the round engine, and the
// tensor kernels at once — must not change RunSweep's JSON by a byte.
func TestSweepBytesTraceOnVsOff(t *testing.T) {
	cfg := goldenSweepConfig()
	runJSON := func() []byte {
		report, err := RunSweep(cfg)
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
	if _, err := obs.Enable(obs.Config{Program: "sweep-test", Trace: &trace}); err != nil {
		t.Fatal(err)
	}
	on := runJSON()
	sum, err := obs.Disable()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(off, on) {
		t.Errorf("sweep JSON differs with tracing enabled:\n on: %s\noff: %s", on, off)
	}
	if sum == nil || len(sum.Phases) == 0 {
		t.Fatal("traced sweep produced no phase summary")
	}
	events, err := obs.ReadTrace(&trace)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := obs.SpanTreeValid(events); err != nil {
		t.Error(err)
	}
}

// TestSweepTraceRace hammers the obs layer from a full-width cell pool: every
// worker emits cell/lease/round/kernel spans and metric updates into one
// session concurrently. Run under -race this is the data-race acceptance test
// for the observability tentpole; CellWorkers spans {1, NumCPU} to cover the
// serialized and saturated pool shapes.
func TestSweepTraceRace(t *testing.T) {
	for _, cw := range []int{1, runtime.NumCPU()} {
		t.Run(fmt.Sprintf("cell-workers-%d", cw), func(t *testing.T) {
			var trace bytes.Buffer
			if _, err := obs.Enable(obs.Config{Program: "race-test", Trace: &trace}); err != nil {
				t.Fatal(err)
			}
			cfg := goldenSweepConfig()
			cfg.CellWorkers = cw
			_, runErr := RunSweep(cfg)
			if _, err := obs.Disable(); err != nil {
				t.Fatal(err)
			}
			if runErr != nil {
				t.Fatal(runErr)
			}
			events, err := obs.ReadTrace(&trace)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := obs.SpanTreeValid(events); err != nil {
				t.Error(err)
			}
		})
	}
}
