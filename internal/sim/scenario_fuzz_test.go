package sim

import (
	"bytes"
	"context"
	rand "math/rand/v2"
	"strings"
	"sync"
	"testing"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/tensor"
)

// validBase is a minimal scenario every corpus entry mutates from.
func validBase() Scenario {
	return Scenario{
		Name: "corpus", Seed: 7,
		Clients: 8, Rounds: 4, BatchSize: 4,
		Dataset: DatasetSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Samples: 64},
		Attack:  AttackSpec{Kind: "qbi", Neurons: 16, Rounds: []int{1}},
	}
}

// TestScenarioValidationCorpus is the table-driven validation corpus for the
// registry-era spec: every registered attack kind must pass, and the classic
// spec mistakes (unknown kinds, bad rounds windows, negative neurons, bad
// defenses) must fail with a message naming the problem.
func TestScenarioValidationCorpus(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Scenario)
		wantErr string // "" = must validate
	}{
		{"base", func(*Scenario) {}, ""},
		{"attack-rtf", func(s *Scenario) { s.Attack.Kind = "rtf" }, ""},
		{"attack-cah", func(s *Scenario) { s.Attack.Kind = "cah" }, ""},
		{"attack-loki", func(s *Scenario) { s.Attack.Kind = "loki" }, ""},
		{"honest", func(s *Scenario) { s.Attack = AttackSpec{} }, ""},
		{"unknown-attack", func(s *Scenario) { s.Attack.Kind = "gradient-wizard" }, "unknown attack kind"},
		{"negative-neurons", func(s *Scenario) { s.Attack.Neurons = -3 }, "neurons must be > 0"},
		{"zero-neurons", func(s *Scenario) { s.Attack.Neurons = 0 }, "neurons must be > 0"},
		{"window-after-run", func(s *Scenario) {
			s.Attack.Rounds = nil
			s.Attack.FirstRound, s.Attack.LastRound = 10, 12
		}, "never strikes"},
		{"inverted-window", func(s *Scenario) {
			s.Attack.Rounds = nil
			s.Attack.FirstRound, s.Attack.LastRound = 3, 1
		}, "never strikes"},
		{"explicit-round-outside", func(s *Scenario) { s.Attack.Rounds = []int{9} }, "never strikes"},
		{"defense-prune", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "prune:0.3"} }, ""},
		{"defense-ats", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "ats:MR"} }, ""},
		{"defense-prune-bad-keep", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "prune:1.5"} }, "pruning"},
		{"defense-ats-bad-policy", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "ats:bogus"} }, "ats:bogus"},
		{"defense-unknown", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "tinfoil"} }, "unknown kind"},
		{"defense-pipeline", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1,0.1"} }, ""},
		{"defense-pipeline-triple", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "ats:SH|prune:0.5|dpsgd:2,0.3"} }, ""},
		{"defense-pipeline-duplicate-stage", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "prune:0.3|prune:0.3"} }, ""},
		{"defense-pipeline-empty-segment", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR||prune:0.5"} }, "segment 2 is empty"},
		{"defense-pipeline-trailing-bar", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR|"} }, "segment 2 is empty"},
		{"defense-pipeline-only-bar", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "|"} }, "segment 1 is empty"},
		{"defense-pipeline-bad-tail", func(s *Scenario) { s.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1"} }, "segment 2"},
		{"partition-quantity-inf", func(s *Scenario) { s.Partition = "quantity:Inf" }, "sigma must be finite"},
		{"partition-quantity-nan", func(s *Scenario) { s.Partition = "quantity:NaN" }, "sigma must be finite"},
		{"partition-dirichlet-inf", func(s *Scenario) { s.Partition = "dirichlet:Inf" }, "alpha must be finite"},
		{"partition-dirichlet-nan", func(s *Scenario) { s.Partition = "dirichlet:NaN" }, "alpha must be finite"},
		// A finite sigma is a valid spec; whether its weights overflow
		// depends on the draws, so the run itself fails (see
		// TestRunRejectsOverflowingQuantity).
		{"partition-quantity-1e308", func(s *Scenario) { s.Partition = "quantity:1e308" }, ""},
		{"no-clients", func(s *Scenario) { s.Clients = 0 }, "clients must be > 0"},
		{"negative-rounds", func(s *Scenario) { s.Rounds = -1 }, "rounds must be > 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := validBase()
			tc.mutate(&sc)
			_, err := sc.Normalize()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("want valid, got %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("want error containing %q, got none", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestRunRejectsOverflowingQuantity: a quantity sigma whose log-normal
// weights overflow used to give every client an empty shard while the run
// still completed; it must fail before any round runs.
func TestRunRejectsOverflowingQuantity(t *testing.T) {
	sc, ok := Preset("smoke")
	if !ok {
		t.Fatal("smoke preset not registered")
	}
	sc.Partition = "quantity:1e308"
	report, err := Run(sc, Options{Quick: true})
	if err == nil {
		t.Fatalf("run succeeded with %d rounds", len(report.Rounds))
	}
	if !strings.Contains(err.Error(), "out of float64 range") {
		t.Errorf("error %q does not name the overflow", err)
	}
}

// TestUnknownAttackErrorListsRegistry pins the stale-message fix: the
// validation error must name every registered family, not a hard-coded pair.
func TestUnknownAttackErrorListsRegistry(t *testing.T) {
	sc := validBase()
	sc.Attack.Kind = "nope"
	_, err := sc.Normalize()
	if err == nil {
		t.Fatal("unknown kind accepted")
	}
	for _, kind := range attack.Names() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("validation error %q does not list registered kind %q", err, kind)
		}
	}
	if strings.Contains(err.Error(), "want rtf or cah") {
		t.Error("validation error still hard-codes the pre-registry kinds")
	}
}

// TestUnknownDefenseErrorListsRegistry pins the defense counterpart of the
// stale-message fix: the validation error must name every registered defense
// family dynamically, not a hard-coded list.
func TestUnknownDefenseErrorListsRegistry(t *testing.T) {
	sc := validBase()
	sc.Defense = DefenseSpec{Kind: "tinfoil"}
	_, err := sc.Normalize()
	if err == nil {
		t.Fatal("unknown defense kind accepted")
	}
	for _, kind := range defense.Names() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("validation error %q does not list registered kind %q", err, kind)
		}
	}
	if strings.Contains(err.Error(), "want oasis:<policy>, dpsgd:<clip>,<sigma>") {
		t.Error("validation error still hard-codes the pre-registry kinds")
	}
}

// registerHalve registers the "halve" kind once per process, so the test
// that needs it passes at any -count.
var registerHalve = sync.OnceValue(func() error {
	return defense.Register("halve", func(arg string, cfg defense.Config) (defense.Defense, error) {
		return halveDefense{}, nil
	})
})

// TestCustomDefenseAcceptedInScenario is the open-extension acceptance bar:
// a defense registered by a library user must immediately be a valid
// scenario kind — standalone and as a pipeline segment — with no sim-side
// switch to update, and must run end to end.
func TestCustomDefenseAcceptedInScenario(t *testing.T) {
	if err := registerHalve(); err != nil {
		t.Fatal(err)
	}
	sc := validBase()
	sc.Defense = DefenseSpec{Kind: "halve"}
	if _, err := sc.Normalize(); err != nil {
		t.Fatalf("custom defense kind rejected: %v", err)
	}
	sc.Defense = DefenseSpec{Kind: "oasis:MR|halve", Fraction: 1}
	norm, err := sc.Normalize()
	if err != nil {
		t.Fatalf("custom defense rejected as pipeline segment: %v", err)
	}
	rep, err := Run(norm, Options{Quick: true, Workers: 2})
	if err != nil {
		t.Fatalf("scenario with custom defense failed to run: %v", err)
	}
	if rep.Defense != "oasis(MR)|halve" {
		t.Errorf("report label %q, want resolved pipeline name oasis(MR)|halve", rep.Defense)
	}
}

// halveDefense is the custom test defense: a gradient-stage scaler.
type halveDefense struct{}

func (halveDefense) Name() string                         { return "halve" }
func (halveDefense) ApplyBatch(b *data.Batch) *data.Batch { return b }
func (halveDefense) ApplyGrads(grads []*tensor.Tensor) {
	for _, g := range grads {
		g.ScaleInPlace(0.5)
	}
}

// TestScenarioRandomSpecCorpus drives Normalize over seeded-random attack
// and schedule mutations: validation must accept exactly the specs whose
// kind is registered, neurons positive, and window live — and must never
// panic regardless of the draw.
func TestScenarioRandomSpecCorpus(t *testing.T) {
	kinds := append([]string{"", "bogus", "RTF", "qbi ", "loki"}, attack.Names()...)
	rng := rand.New(rand.NewPCG(0xc0ffee, 1))
	for i := 0; i < 500; i++ {
		sc := validBase()
		sc.Rounds = 1 + rng.IntN(8)
		sc.Attack.Kind = kinds[rng.IntN(len(kinds))]
		sc.Attack.Neurons = rng.IntN(40) - 8
		sc.Attack.Rounds = nil
		sc.Attack.FirstRound = rng.IntN(10) - 2
		sc.Attack.LastRound = rng.IntN(10) - 2
		if rng.IntN(3) == 0 {
			sc.Attack.Rounds = []int{rng.IntN(12) - 2}
		}

		wantOK := true
		if sc.Attack.Kind != "" {
			if !attack.Known(sc.Attack.Kind) || sc.Attack.Neurons <= 0 {
				wantOK = false
			} else {
				live := false
				for r := 0; r < sc.Rounds; r++ {
					if sc.Attack.Active(r) {
						live = true
						break
					}
				}
				wantOK = live
			}
		}
		_, err := sc.Normalize()
		if wantOK && err != nil {
			t.Fatalf("draw %d (%+v): want valid, got %v", i, sc.Attack, err)
		}
		if !wantOK && err == nil {
			t.Fatalf("draw %d (%+v, rounds %d): invalid spec accepted", i, sc.Attack, sc.Rounds)
		}
	}
}

// FuzzScenarioDecode hardens the JSON front door: whatever bytes arrive,
// Decode and Normalize must fail cleanly instead of panicking, and a spec
// that normalizes must survive a JSON round trip to the same resolved form.
// A small spec that normalizes is then run for one round, where RunContext
// must return a report or an error, never panic.
func FuzzScenarioDecode(f *testing.F) {
	seed := func(sc Scenario) {
		raw, err := sc.JSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	base := validBase()
	seed(base)
	loki := validBase()
	loki.Attack = AttackSpec{Kind: "loki", Neurons: 32, FirstRound: 1, LastRound: 2}
	seed(loki)
	bad := validBase()
	bad.Attack.Neurons = -5
	seed(bad)
	window := validBase()
	window.Attack.Rounds = []int{99}
	seed(window)
	composed := validBase()
	composed.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1,0.1", Fraction: 0.5}
	seed(composed)
	duplicate := validBase()
	duplicate.Defense = DefenseSpec{Kind: "prune:0.3|prune:0.3"}
	seed(duplicate)
	// Strikes in round 0, so the attack still runs under the one-round cap.
	strike := validBase()
	strike.Attack = AttackSpec{Kind: "rtf", Neurons: 16, Rounds: []int{0}}
	strike.Defense = DefenseSpec{Kind: "oasis:MR|dpsgd:1,0.1", Fraction: 0.5}
	seed(strike)
	resnet := validBase()
	resnet.Attack = AttackSpec{Kind: "cah", Neurons: 8}
	resnet.Model = ArchSpec{Kind: "resnet", Hidden: 4}
	resnet.LocalSteps, resnet.Dropout, resnet.Partition = 2, 0.2, "dirichlet:0.5"
	seed(resnet)
	f.Add([]byte(`{"name":"x","attack":{"kind":"qbi","neurons":1e9}}`))
	f.Add([]byte(`{"clients":1,"rounds":1,"dataset":{"classes":2,"channels":1,"height":1,"width":1,"samples":1}}`))
	f.Add([]byte(`{`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"|"}}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"oasis:MR||ats:SH"}}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"dpsgd:1,0.1|dpsgd:1,0.1|dpsgd:1,0.1"}}`))
	f.Add([]byte(`{"name":"p","clients":2,"rounds":1,"dataset":{"classes":2,"channels":1,"height":4,"width":4,"samples":8},"defense":{"kind":"oasis:MR|"}}`))

	f.Fuzz(func(t *testing.T, raw []byte) {
		sc, err := Decode(bytes.NewReader(raw))
		if err != nil {
			return // malformed JSON must simply error
		}
		norm, err := sc.Normalize()
		if err != nil {
			return // invalid specs must simply error
		}
		round, err := norm.JSON()
		if err != nil {
			t.Fatalf("normalized scenario does not marshal: %v", err)
		}
		again, err := Decode(bytes.NewReader(round))
		if err != nil {
			t.Fatalf("normalized scenario does not re-decode: %v", err)
		}
		norm2, err := again.Normalize()
		if err != nil {
			t.Fatalf("normalized scenario does not re-validate: %v", err)
		}
		a, _ := norm.JSON()
		b, _ := norm2.JSON()
		if !bytes.Equal(a, b) {
			t.Fatalf("normalization is not a fixed point:\n%s\nvs\n%s", a, b)
		}
		if !fuzzRunnable(norm) {
			return
		}
		norm.Rounds = 1
		rep, err := RunContext(context.Background(), norm, Options{Quick: true, Workers: 1})
		if err == nil && rep == nil {
			t.Fatal("RunContext returned neither a report nor an error")
		}
	})
}

// fuzzRunnable reports whether a normalized spec is small enough for the
// fuzzer to run: every size that scales the run's memory, time or
// goroutines is capped. Each image dimension is capped before their
// product, so the product cannot overflow.
func fuzzRunnable(sc Scenario) bool {
	d := sc.Dataset
	return sc.Clients <= 64 && d.Samples <= 256 && d.Classes <= 64 &&
		d.Channels <= 256 && d.Height <= 256 && d.Width <= 256 &&
		d.Channels*d.Height*d.Width <= 256 &&
		sc.Attack.Neurons <= 64 && sc.Attack.AnticipatedBatch <= 64 &&
		sc.Model.Hidden <= 64 && sc.LocalSteps <= 4
}
