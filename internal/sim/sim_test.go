package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestPresetsNormalize(t *testing.T) {
	names := PresetNames()
	want := []string{"smoke", "cross-device-1k", "flaky-hospital", "qbi-probe", "loki-population", "cross-device-1M", "adversarial-burst"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("preset names %v, want %v", names, want)
	}
	for _, sc := range Presets() {
		if _, err := sc.Normalize(); err != nil {
			t.Errorf("preset %s does not validate: %v", sc.Name, err)
		}
	}
	if _, ok := Preset("nope"); ok {
		t.Error("Preset(nope) found")
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc, _ := Preset("cross-device-1k")
	raw, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc, back) {
		t.Errorf("JSON round trip changed the scenario:\n in: %+v\nout: %+v", sc, back)
	}
}

// TestDecodeRejectsUnknownFields covers a typo and "real_time", a field
// older specs carried: straggler delays are always virtual.
func TestDecodeRejectsUnknownFields(t *testing.T) {
	for _, field := range []string{`"dropuot":0.5`, `"real_time":true`} {
		name := strings.Split(field, `"`)[1]
		_, err := Decode(strings.NewReader(`{"name":"x","clients":2,"rounds":1,` + field + `}`))
		if err == nil || !strings.Contains(err.Error(), name) {
			t.Errorf("expected unknown-field error naming %s, got %v", name, err)
		}
	}
}

func TestValidateCatchesBadSpecs(t *testing.T) {
	base := func() Scenario {
		sc, _ := Preset("smoke")
		return sc
	}
	cases := map[string]func(*Scenario){
		"no clients":         func(s *Scenario) { s.Clients = 0 },
		"no rounds":          func(s *Scenario) { s.Rounds = 0 },
		"dropout 1":          func(s *Scenario) { s.Dropout = 1 },
		"tiny dataset":       func(s *Scenario) { s.Dataset.Samples = s.Clients - 1 },
		"bad partition":      func(s *Scenario) { s.Partition = "zipf" },
		"bad sampler":        func(s *Scenario) { s.Sampling = "roulette" },
		"bad aggregator":     func(s *Scenario) { s.Aggregator = "blockchain" },
		"bad defense":        func(s *Scenario) { s.Defense.Kind = "prayer" },
		"bad attack":         func(s *Scenario) { s.Attack.Kind = "dos" },
		"attack never fires": func(s *Scenario) { s.Attack.Rounds = []int{99} },
		"bad model":          func(s *Scenario) { s.Model.Kind = "transformer" },
		"negative hidden":    func(s *Scenario) { s.Model.Hidden = -5 },
		"negative lr":        func(s *Scenario) { s.LearningRate = -0.05 },
	}
	for name, mutate := range cases {
		sc := base()
		mutate(&sc)
		if _, err := sc.Normalize(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
}

func TestAttackSchedule(t *testing.T) {
	burst := AttackSpec{Kind: "rtf", FirstRound: 2, LastRound: 4}
	for r, want := range map[int]bool{0: false, 1: false, 2: true, 3: true, 4: true, 5: false} {
		if burst.Active(r) != want {
			t.Errorf("burst Active(%d) = %v, want %v", r, burst.Active(r), want)
		}
	}
	explicit := AttackSpec{Kind: "cah", Rounds: []int{1, 5}}
	for r, want := range map[int]bool{0: false, 1: true, 2: false, 5: true} {
		if explicit.Active(r) != want {
			t.Errorf("explicit Active(%d) = %v, want %v", r, explicit.Active(r), want)
		}
	}
	if (AttackSpec{}).Active(0) {
		t.Error("empty attack spec must never be active")
	}
}

// runPreset executes a preset in quick mode at the given worker count.
func runPreset(t *testing.T, name string, workers int) *Report {
	t.Helper()
	sc, ok := Preset(name)
	if !ok {
		t.Fatalf("no preset %s", name)
	}
	rep, err := Run(sc, Options{Quick: true, Workers: workers})
	if err != nil {
		t.Fatalf("preset %s: %v", name, err)
	}
	return rep
}

// TestRunContextCancelled: a run under an already-cancelled context returns
// context.Canceled and no report, at every worker count, rather than a
// report of rounds in which nobody trained.
func TestRunContextCancelled(t *testing.T) {
	sc, _ := Preset("smoke")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		rep, err := RunContext(ctx, sc, Options{Quick: true, Workers: workers})
		if !errors.Is(err, context.Canceled) || rep != nil {
			t.Errorf("Workers=%d: got report %v and error %v, want no report and context.Canceled", workers, rep != nil, err)
		}
	}
}

// TestSmokePresetEndToEnd is the CI smoke tier's scenario: the tiny preset
// must run end to end with every subsystem engaged.
func TestSmokePresetEndToEnd(t *testing.T) {
	rep := runPreset(t, "smoke", 4)
	if len(rep.Rounds) != 4 {
		t.Fatalf("%d rounds recorded, want 4", len(rep.Rounds))
	}
	if rep.MeanParticipation <= 0 || rep.MeanParticipation > 1 {
		t.Errorf("mean participation %.2f out of (0, 1]", rep.MeanParticipation)
	}
	if !rep.Rounds[1].AttackActive {
		t.Error("round 1 should be the attack round")
	}
	if rep.AttackCaptures == 0 {
		t.Error("the RTF strike captured nothing")
	}
	if !rep.Rounds[len(rep.Rounds)-1].Evaluated {
		t.Error("final round must carry an accuracy evaluation")
	}
	if rep.ShardSizes.Min < 1 {
		t.Errorf("shard min %d; every client needs data", rep.ShardSizes.Min)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	var round map[string]any
	if err := json.Unmarshal(raw, &round); err != nil {
		t.Fatalf("report JSON does not parse back: %v", err)
	}
	if !strings.Contains(rep.String(), "participation") {
		t.Error("String() missing summary")
	}
	if rows := rep.Table().Rows; len(rows) != len(rep.Rounds) {
		t.Errorf("table has %d rows for %d rounds", len(rows), len(rep.Rounds))
	}
}

// TestOnePixelHeightScenario: a scenario whose images are one pixel high
// trains on finite pixels, so every loss and gradient norm it reports is
// finite. The smoke preset's OASIS defense rotates images and needs them
// square, so this scenario runs undefended.
func TestOnePixelHeightScenario(t *testing.T) {
	sc, _ := Preset("smoke")
	sc.Dataset.Height = 1
	sc.Defense = DefenseSpec{}
	rep, err := Run(sc, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rep.FinalLoss) || math.IsInf(rep.FinalLoss, 0) {
		t.Errorf("final loss %v, want a finite value", rep.FinalLoss)
	}
	for _, r := range rep.Rounds {
		if math.IsNaN(r.MeanLoss) || math.IsInf(r.MeanLoss, 0) {
			t.Errorf("round %d: mean loss %v, want a finite value", r.Round, r.MeanLoss)
		}
		if math.IsNaN(r.GradNorm) || math.IsInf(r.GradNorm, 0) {
			t.Errorf("round %d: gradient norm %v, want a finite value", r.Round, r.GradNorm)
		}
	}
}

// TestNonSquareRotationFailsCleanly: the smoke preset at 4×8 keeps its
// oasis:MR defense, which rotates by right angles and so needs square
// images. The run must return an error naming the defense and the geometry
// before any client trains, where it used to panic in a client goroutine
// and take the process down. A flip defense runs on the same images.
func TestNonSquareRotationFailsCleanly(t *testing.T) {
	sc, _ := Preset("smoke")
	sc.Dataset.Height = 4
	_, err := Run(sc, Options{Quick: true})
	if err == nil || !strings.Contains(err.Error(), `"oasis:MR"`) || !strings.Contains(err.Error(), "4×8") {
		t.Fatalf("err %v, want an error naming oasis:MR and 4×8", err)
	}
	sc.Defense.Kind = "oasis:HFlip"
	if _, err := Run(sc, Options{Quick: true}); err != nil {
		t.Fatalf("flip defense on 4×8 images: %v", err)
	}
}

// TestCrossDevice1kAcceptance is the subsystem's acceptance scenario: 1000
// clients, Dirichlet(0.1) label skew, 10% dropout, stragglers against a
// deadline, and an RTF burst — to completion in quick mode, with dropped and
// late clients degrading rounds instead of stalling them.
func TestCrossDevice1kAcceptance(t *testing.T) {
	rep := runPreset(t, "cross-device-1k", 8)
	if rep.Clients != 1000 {
		t.Fatalf("population %d, want 1000", rep.Clients)
	}
	if rep.Partition != "dirichlet:0.1" {
		t.Errorf("partition %s, want dirichlet:0.1", rep.Partition)
	}
	if len(rep.Rounds) != quickMaxRounds {
		t.Fatalf("%d rounds, want quick cap %d", len(rep.Rounds), quickMaxRounds)
	}
	if rep.TotalDropped == 0 {
		t.Error("10%% dropout over 5×50 selections produced no dropouts")
	}
	if rep.TotalLate == 0 {
		t.Error("straggler tail vs 120ms deadline produced no late clients")
	}
	attacked := false
	for _, rr := range rep.Rounds {
		if rr.Selected != 50 {
			t.Errorf("round %d selected %d clients, want 50", rr.Round, rr.Selected)
		}
		if rr.Completed+rr.Dropped+rr.Late+rr.Failed != rr.Selected {
			t.Errorf("round %d outcome accounting does not add up: %+v", rr.Round, rr)
		}
		if rr.Completed == 0 {
			t.Errorf("round %d lost every client", rr.Round)
		}
		attacked = attacked || rr.AttackActive
	}
	if !attacked {
		t.Error("the attack burst never fired")
	}
	if rep.AttackReconstructions == 0 {
		t.Error("the RTF burst reconstructed nothing")
	}
	if rep.AttackMeanPSNR <= 0 {
		t.Error("attack PSNR was never scored against recorded originals")
	}
	if rep.TotalVirtualMS <= 0 {
		t.Error("virtual clock never advanced")
	}
}

// TestReportDeterministicAcrossWorkers is the acceptance bar for the
// engine: a fixed seed must yield a bit-identical report (JSON and all) for
// every worker count, including the full 1000-client scenario.
func TestReportDeterministicAcrossWorkers(t *testing.T) {
	for _, preset := range []string{"smoke", "cross-device-1k", "flaky-hospital", "adversarial-burst"} {
		t.Run(preset, func(t *testing.T) {
			seq := runPreset(t, preset, 1)
			con := runPreset(t, preset, 8)
			if !reflect.DeepEqual(seq, con) {
				t.Fatalf("workers=1 and workers=8 reports diverge:\n seq: %+v\n con: %+v", seq, con)
			}
			a, _ := seq.JSON()
			b, _ := con.JSON()
			if !bytes.Equal(a, b) {
				t.Fatal("report JSON differs across worker counts")
			}
		})
	}
}

// TestDefenseLowersAttackPSNR ties the subsystem back to the paper: the same
// scenario with full OASIS coverage must reconstruct worse than undefended.
func TestDefenseLowersAttackPSNR(t *testing.T) {
	if testing.Short() {
		t.Skip("comparative sweep; run without -short")
	}
	sc, _ := Preset("smoke")
	sc.Dropout = 0
	sc.Straggler = StragglerSpec{}
	sc.DeadlineMS = 0

	sc.Defense = DefenseSpec{}
	undefended, err := Run(sc, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	sc.Defense = DefenseSpec{Kind: "oasis:MR", Fraction: 1}
	defended, err := Run(sc, Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if undefended.AttackMeanPSNR == 0 || defended.AttackMeanPSNR == 0 {
		t.Fatalf("PSNR not scored: undefended %.1f, defended %.1f",
			undefended.AttackMeanPSNR, defended.AttackMeanPSNR)
	}
	if defended.AttackMeanPSNR >= undefended.AttackMeanPSNR {
		t.Errorf("OASIS did not lower reconstruction PSNR: defended %.1f ≥ undefended %.1f",
			defended.AttackMeanPSNR, undefended.AttackMeanPSNR)
	}
}

// TestReportDefenseLabelResolved pins the label bugfix: Report.Defense must
// carry the constructed pipeline's Name() — resolved parameters, not the raw
// spec string — for single defenses and composed pipelines alike.
func TestReportDefenseLabelResolved(t *testing.T) {
	sc, _ := Preset("smoke")
	sc.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1,0.1", Fraction: 0.5}
	rep, err := Run(sc, Options{Quick: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := "oasis(MR)|dpsgd(σ=0.1)"; rep.Defense != want {
		t.Errorf("composed report label = %q, want %q", rep.Defense, want)
	}
	if !strings.Contains(rep.String(), "oasis(MR)|dpsgd(σ=0.1)") {
		t.Error("report summary does not show the resolved pipeline label")
	}

	sc.Defense = DefenseSpec{Kind: "prune:0.3", Fraction: 1}
	rep, err = Run(sc, Options{Quick: true, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := "prune(keep=0.3)"; rep.Defense != want {
		t.Errorf("single-stage report label = %q, want %q", rep.Defense, want)
	}
}

// TestQuickModeRejectsOutOfWindowAttack: quick's round cap must not silently
// drop a scheduled attack.
func TestQuickModeRejectsOutOfWindowAttack(t *testing.T) {
	sc, _ := Preset("smoke")
	sc.Rounds = 12
	sc.Attack.Rounds = []int{10}
	if _, err := Run(sc, Options{Quick: true}); err == nil {
		t.Fatal("expected quick-mode validation error for an attack beyond the round cap")
	}
}

// TestLoadScenarioFile drives the -scenario file path: dump the 1000-client
// preset to JSON, load it back, and run it in quick mode.
func TestLoadScenarioFile(t *testing.T) {
	sc, _ := Preset("cross-device-1k")
	raw, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(loaded, Options{Quick: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clients != 1000 || rep.Partition != "dirichlet:0.1" {
		t.Errorf("loaded scenario ran wrong: %d clients, partition %s", rep.Clients, rep.Partition)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("expected error for missing file")
	}
}
