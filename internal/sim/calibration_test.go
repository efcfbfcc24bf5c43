package sim

import (
	"bytes"
	"encoding/gob"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/fl"
)

// memoScenario is a small attacked population whose calibration renders a
// few hundred probe images.
func memoScenario(kind string) Scenario {
	return Scenario{
		Name: "memo", Seed: 11, Clients: 8, Rounds: 2, ClientsPerRound: 4, BatchSize: 4,
		Dataset:     DatasetSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Samples: 160},
		Attack:      AttackSpec{Kind: kind, Neurons: 16, AnticipatedBatch: 4, Rounds: []int{1}},
		TestSamples: 32,
	}
}

// forgetCalibrations empties the calibration memo, so the next run of any
// scenario calibrates cold.
func forgetCalibrations() {
	calibrations.mu.Lock()
	defer calibrations.mu.Unlock()
	clear(calibrations.m)
}

// held is the live entry under key, or nil; it never stores one.
func (w *weakMemo[K, V]) held(key K) *V {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.m[key].Value()
}

func normalized(t *testing.T, sc Scenario) Scenario {
	t.Helper()
	sc, err := sc.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// calibrate runs buildAttack on the normalized scenario's train dataset, as
// run does.
func calibrate(t *testing.T, sc Scenario) *scheduledAttack {
	t.Helper()
	sc = normalized(t, sc)
	ds, _ := scenarioDatasets(sc)
	sched, err := buildAttack(sc, ds, calibrationOf(sc))
	if err != nil {
		t.Fatal(err)
	}
	return sched
}

// dispatchedSpec is the gob encoding of the malicious model a scheduled
// attack dispatches on a strike round.
func dispatchedSpec(t *testing.T, sched *scheduledAttack) []byte {
	t.Helper()
	spec, err := sched.Modify(1, fl.ModelSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// reportJSON runs the scenario and returns its report bytes, insisting the
// attack reconstructed something.
func reportJSON(t *testing.T, sc Scenario) []byte {
	t.Helper()
	rep, err := Run(sc, Options{Quick: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AttackReconstructions == 0 {
		t.Fatalf("%s reconstructed nothing, so its report cannot tell calibrations apart", sc.Attack.Kind)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestCalibrationMemoBitExact: a run that reuses a memoized calibration
// dispatches the same malicious model and reports the same bytes as a run
// that calibrated cold. The victim's other layers draw from the calibration
// stream where calibration left it, so a reuse that restarted or continued
// that stream elsewhere would change the dispatched spec.
func TestCalibrationMemoBitExact(t *testing.T) {
	for _, kind := range []string{"rtf", "cah", "qbi", "loki"} {
		t.Run(kind, func(t *testing.T) {
			sc := memoScenario(kind)
			forgetCalibrations()
			coldReport := reportJSON(t, sc)
			forgetCalibrations()
			cold := calibrate(t, sc)
			coldSpec := dispatchedSpec(t, cold)

			// cold holds its calibration, so both of these reuse it.
			warm := calibrate(t, sc)
			if warm.cal != cold.cal {
				t.Fatal("a second calibration of the same key did not reuse the first")
			}
			if !bytes.Equal(dispatchedSpec(t, warm), coldSpec) {
				t.Error("a reused calibration dispatched a different malicious model")
			}
			if warm.inner == cold.inner {
				t.Error("two runs share one dishonest server and would share its captures")
			}
			warmReport := reportJSON(t, sc)
			if got := calibrations.held(calKeyOf(normalized(t, sc))); got != cold.cal {
				t.Error("the run calibrated again instead of reusing the held calibration")
			}
			if !bytes.Equal(warmReport, coldReport) {
				t.Errorf("a run on a reused calibration reported different bytes:\n%s", diffHint(warmReport, coldReport))
			}
		})
	}
}

// countingCalls counts the calls of the "sim-test-counting" constructor.
var countingCalls atomic.Int64

// TestRegisteredAttackCalibratesEveryRun: a family added through
// attack.Register may have an impure constructor, so it is constructed on
// every run, even when it returns a built-in Imprint and an earlier run's
// attack is still alive.
func TestRegisteredAttackCalibratesEveryRun(t *testing.T) {
	if !attack.Known("sim-test-counting") {
		err := attack.Register("sim-test-counting", func(cfg attack.Config) (attack.Attack, error) {
			countingCalls.Add(1)
			return attack.NewRTF(cfg.Dims, cfg.Classes, cfg.Neurons, cfg.Probe, cfg.Rng, cfg.ProbeSize)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sc := memoScenario("sim-test-counting")
	before := countingCalls.Load()
	first := calibrate(t, sc)
	second := calibrate(t, sc)
	if got := countingCalls.Load() - before; got != 2 {
		t.Errorf("registered constructor ran %d times for 2 calibrations, want 2", got)
	}
	if first.cal == second.cal {
		t.Error("a registered kind's calibration was reused")
	}
	reportJSON(t, sc)
	if got := countingCalls.Load() - before; got != 3 {
		t.Errorf("registered constructor ran %d times after a run, want 3", got)
	}
}

// TestCalibrationMemoConcurrentRuns: runs on one key at once share one
// calibration, whichever of them calibrates, and each reports the bytes of
// a cold run. Run it under -race.
func TestCalibrationMemoConcurrentRuns(t *testing.T) {
	sc := memoScenario("cah")
	forgetCalibrations()
	want := reportJSON(t, sc)
	forgetCalibrations()
	var wg sync.WaitGroup
	got := make([][]byte, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := Run(sc, Options{Quick: true, Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			got[i], err = rep.JSON()
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, raw := range got {
		if !bytes.Equal(raw, want) {
			t.Errorf("concurrent run %d reported different bytes:\n%s", i, diffHint(raw, want))
		}
	}
}

// TestCalibrationSingleFlight: two buildAttack calls on one built-in key at
// once share one calibration; the second waits for the first instead of
// calibrating again. Run it under -race.
func TestCalibrationSingleFlight(t *testing.T) {
	sc := normalized(t, memoScenario("rtf"))
	d := sc.Dataset
	ds := data.NewSynthCustom(sc.Name+"-train", d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed)
	forgetCalibrations()
	var wg sync.WaitGroup
	got := make([]*scheduledAttack, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sched, err := buildAttack(sc, ds, calibrationOf(sc))
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = sched
		}()
	}
	wg.Wait()
	if got[0] == nil || got[1] == nil {
		t.FailNow()
	}
	if got[0].cal != got[1].cal {
		t.Error("two concurrent calibrations of one key did not share one calibration")
	}
	if got[0].inner == got[1].inner {
		t.Error("two runs share one dishonest server and would share its captures")
	}
}
