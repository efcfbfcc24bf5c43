package sim

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
)

// Scenario declaratively describes the full shape of a federated run: who
// the clients are, what data they hold, how reliable they are, who defends,
// and when the dishonest server strikes. Construct it in Go or decode it
// from JSON (Load/Decode); Run materializes and executes it.
//
// Zero values mean "default" wherever a default is sensible; Normalize
// resolves them and Validate reports what is wrong with an explicit spec.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	Seed        uint64 `json:"seed"`

	// Population and pacing.
	Clients         int     `json:"clients"`
	Rounds          int     `json:"rounds"`
	ClientsPerRound int     `json:"clients_per_round,omitempty"` // 0 = all clients every round
	BatchSize       int     `json:"batch_size,omitempty"`        // default 8
	LocalSteps      int     `json:"local_steps,omitempty"`       // ≤1 = FedSGD
	LearningRate    float64 `json:"learning_rate,omitempty"`     // default 0.05

	// Data and its distribution across clients.
	Dataset   DatasetSpec `json:"dataset"`
	Partition string      `json:"partition,omitempty"` // iid | dirichlet[:a] | quantity[:s]; default iid

	// Server-side policy.
	Sampling   string  `json:"sampling,omitempty"`    // uniform | size; default uniform
	Aggregator string  `json:"aggregator,omitempty"`  // mean | median | trimmed[:f] | normclip[:m]
	DeadlineMS float64 `json:"deadline_ms,omitempty"` // virtual per-round deadline; 0 = wait forever

	// Client reliability.
	Dropout   float64       `json:"dropout,omitempty"` // per-client per-round dropout probability
	Straggler StragglerSpec `json:"straggler,omitempty"`

	// Defense and threat model.
	Defense DefenseSpec `json:"defense,omitempty"`
	Attack  AttackSpec  `json:"attack,omitempty"`

	// Global model and evaluation cadence.
	Model       ArchSpec `json:"model,omitempty"`
	EvalEvery   int      `json:"eval_every,omitempty"`   // rounds between accuracy evals; 0 = final only
	TestSamples int      `json:"test_samples,omitempty"` // held-out eval set size; default 128
}

// Clone returns a deep copy of the scenario. The value is mostly plain data,
// but Attack.Rounds is a slice a plain value copy would alias; harnesses that
// customize per-cell copies concurrently (the sweep engine) need full
// isolation.
func (s Scenario) Clone() Scenario {
	c := s
	if s.Attack.Rounds != nil {
		c.Attack.Rounds = append([]int(nil), s.Attack.Rounds...)
	}
	return c
}

// WithSeed returns an isolated deep copy of the scenario running at the given
// seed — the replicate axis of a multi-seed sweep.
func (s Scenario) WithSeed(seed uint64) Scenario {
	c := s.Clone()
	c.Seed = seed
	return c
}

// DatasetSpec sizes the synthetic dataset the population trains on.
type DatasetSpec struct {
	Classes  int `json:"classes"`
	Channels int `json:"channels"`
	Height   int `json:"height"`
	Width    int `json:"width"`
	Samples  int `json:"samples"`
}

// StragglerSpec shapes the slow tail of the population: Fraction of the
// clients are stragglers whose per-round extra delay is exponential with
// mean MeanDelayMS, on top of the BaseDelayMS every client pays.
type StragglerSpec struct {
	Fraction    float64 `json:"fraction,omitempty"`
	MeanDelayMS float64 `json:"mean_delay_ms,omitempty"`
	BaseDelayMS float64 `json:"base_delay_ms,omitempty"`
}

// DefenseSpec assigns a client-side defense to a fraction of the population
// (chosen uniformly at the scenario seed). Kind is a defense pipeline spec
// resolved by the internal/defense registry: one "kind[:arg]" segment or an
// ordered '|'-chain of them, e.g.
//
//	oasis:<policy>         OASIS batch augmentation (MR, mR, SH, HFlip, VFlip, MR+SH)
//	dpsgd:<clip>,<sigma>   DP-SGD gradient clipping + noise (per-client state)
//	prune:<keep>           gradient sparsification keeping the top fraction
//	ats:<policy>           transformation replacement (Gao et al.); per-client RNG
//	oasis:MR|dpsgd:1,0.1   stacked: batch augmentation plus gradient noise
//
// Any kind added via defense.Register is equally valid; validation errors
// list defense.Names() dynamically.
type DefenseSpec struct {
	Kind     string  `json:"kind,omitempty"`
	Fraction float64 `json:"fraction,omitempty"` // default 1 when Kind is set
}

// AttackSpec schedules the dishonest server. On active rounds the server
// swaps the dispatched model for the attack's malicious victim model and
// inverts every uploaded gradient; on all other rounds it behaves honestly.
// Active rounds are the explicit Rounds list when given, else the inclusive
// burst window [FirstRound, LastRound].
type AttackSpec struct {
	// Kind is "" (honest server) or any registered attack family
	// (attack.Names(): rtf, cah, qbi, loki, …).
	Kind             string `json:"kind,omitempty"`
	Neurons          int    `json:"neurons,omitempty"`
	AnticipatedBatch int    `json:"anticipated_batch,omitempty"` // CAH tuning; default BatchSize
	Rounds           []int  `json:"rounds,omitempty"`
	FirstRound       int    `json:"first_round,omitempty"`
	LastRound        int    `json:"last_round,omitempty"`
}

// Active reports whether the dishonest server strikes in the given round.
func (a AttackSpec) Active(round int) bool {
	if a.Kind == "" {
		return false
	}
	if len(a.Rounds) > 0 {
		for _, r := range a.Rounds {
			if r == round {
				return true
			}
		}
		return false
	}
	return round >= a.FirstRound && round <= a.LastRound
}

// ArchSpec selects the global model family.
type ArchSpec struct {
	Kind   string `json:"kind,omitempty"`   // mlp (default) | resnet
	Hidden int    `json:"hidden,omitempty"` // MLP hidden units / ResNet width; default 32
}

// Normalize fills defaults and validates, returning the resolved scenario.
func (s Scenario) Normalize() (Scenario, error) {
	if s.Name == "" {
		s.Name = "unnamed"
	}
	if s.BatchSize == 0 {
		s.BatchSize = 8
	}
	if s.LearningRate == 0 {
		s.LearningRate = 0.05
	}
	if s.Partition == "" {
		s.Partition = "iid"
	}
	if s.Sampling == "" {
		s.Sampling = "uniform"
	}
	if s.Aggregator == "" {
		s.Aggregator = "mean"
	}
	if s.TestSamples == 0 {
		s.TestSamples = 128
	}
	if s.Model.Kind == "" {
		s.Model.Kind = "mlp"
	}
	if s.Model.Hidden == 0 {
		s.Model.Hidden = 32
	}
	if s.Defense.Kind != "" && s.Defense.Fraction == 0 {
		s.Defense.Fraction = 1
	}
	if s.Attack.Kind != "" && s.Attack.AnticipatedBatch == 0 {
		s.Attack.AnticipatedBatch = s.BatchSize
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// Validate reports the first problem with the spec, or nil.
func (s Scenario) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("sim: scenario %q: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if s.Clients <= 0 {
		return fail("clients must be > 0, got %d", s.Clients)
	}
	if s.Rounds <= 0 {
		return fail("rounds must be > 0, got %d", s.Rounds)
	}
	if s.ClientsPerRound < 0 || s.ClientsPerRound > s.Clients {
		return fail("clients_per_round %d out of range [0, %d]", s.ClientsPerRound, s.Clients)
	}
	d := s.Dataset
	if d.Classes < 2 || d.Channels <= 0 || d.Height <= 0 || d.Width <= 0 || d.Samples <= 0 {
		return fail("dataset needs classes ≥ 2 and positive channels/height/width/samples, got %+v", d)
	}
	if d.Samples < s.Clients {
		return fail("dataset has %d samples for %d clients; every client needs at least one", d.Samples, s.Clients)
	}
	if s.BatchSize <= 0 {
		return fail("batch_size must be > 0, got %d", s.BatchSize)
	}
	if s.LearningRate < 0 {
		return fail("learning_rate must be ≥ 0, got %g", s.LearningRate)
	}
	if s.Model.Hidden < 0 {
		return fail("model.hidden must be ≥ 0, got %d", s.Model.Hidden)
	}
	if s.Dropout < 0 || s.Dropout >= 1 {
		return fail("dropout must be in [0, 1), got %g", s.Dropout)
	}
	if s.Straggler.Fraction < 0 || s.Straggler.Fraction > 1 {
		return fail("straggler.fraction must be in [0, 1], got %g", s.Straggler.Fraction)
	}
	if s.Straggler.MeanDelayMS < 0 || s.Straggler.BaseDelayMS < 0 || s.DeadlineMS < 0 {
		return fail("delays and deadline must be ≥ 0")
	}
	if _, err := data.NewPartitioner(s.Partition); err != nil {
		return fail("%v", err)
	}
	if _, err := fl.NewSamplerByName(s.Sampling); err != nil {
		return fail("%v", err)
	}
	if _, err := fl.NewAggregatorByName(s.Aggregator); err != nil {
		return fail("%v", err)
	}
	if s.Defense.Kind != "" {
		if s.Defense.Fraction < 0 || s.Defense.Fraction > 1 {
			return fail("defense.fraction must be in [0, 1], got %g", s.Defense.Fraction)
		}
		// The registry resolves the pipeline spec, so every registered
		// defense kind — built-in or custom — is a valid scenario defense
		// and unknown-kind errors list defense.Names() without going stale.
		p, err := defense.NewPipeline(s.Defense.Kind, defense.Config{})
		if err != nil {
			return fail("%v", err)
		}
		if d.Height != d.Width && defense.NeedsSquare(p) {
			return fail("defense %q rotates images by right angles, which needs square images, got %d×%d",
				s.Defense.Kind, d.Height, d.Width)
		}
	}
	if s.Attack.Kind != "" && !attack.Known(s.Attack.Kind) {
		// The valid list comes from the attack registry, so this message
		// can never go stale as families are added.
		return fail("unknown attack kind %q (want one of %s)",
			s.Attack.Kind, strings.Join(attack.Names(), ", "))
	}
	if s.Attack.Kind != "" {
		if s.Attack.Neurons <= 0 {
			return fail("attack.neurons must be > 0 for a %s attack", s.Attack.Kind)
		}
		active := false
		for r := 0; r < s.Rounds; r++ {
			if s.Attack.Active(r) {
				active = true
				break
			}
		}
		if !active {
			return fail("attack %q never strikes within %d rounds (check rounds/first_round/last_round)",
				s.Attack.Kind, s.Rounds)
		}
	}
	switch s.Model.Kind {
	case "", "mlp", "resnet":
	default:
		return fail("unknown model kind %q (want mlp or resnet)", s.Model.Kind)
	}
	if s.EvalEvery < 0 || s.TestSamples < 0 {
		return fail("eval_every and test_samples must be ≥ 0")
	}
	return nil
}

// Decode reads a JSON scenario; unknown fields are errors so typos in specs
// fail loudly instead of silently running a different experiment.
func Decode(r io.Reader) (Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return Scenario{}, fmt.Errorf("sim: decode scenario: %w", err)
	}
	return s, nil
}

// Load reads a JSON scenario file.
func Load(path string) (Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("sim: %w", err)
	}
	defer f.Close()
	s, err := Decode(f)
	if err != nil {
		return Scenario{}, fmt.Errorf("sim: %s: %w", path, err)
	}
	return s, nil
}

// JSON renders the scenario as indented JSON (the same schema Load reads).
func (s Scenario) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Presets returns the named example scenarios, smallest first. Attack bursts
// sit inside the first five rounds so quick mode (which caps rounds at five)
// still exercises them.
func Presets() []Scenario {
	return []Scenario{
		{
			Name:        "smoke",
			Description: "Tiny end-to-end scenario for CI: a dozen flaky clients, label skew, one attack round.",
			Seed:        42,
			Clients:     12, Rounds: 4, ClientsPerRound: 6, BatchSize: 4,
			Dataset:    DatasetSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Samples: 240},
			Partition:  "dirichlet:0.5",
			Dropout:    0.1,
			Straggler:  StragglerSpec{Fraction: 0.25, MeanDelayMS: 40, BaseDelayMS: 5},
			DeadlineMS: 80,
			Defense:    DefenseSpec{Kind: "oasis:MR", Fraction: 0.5},
			Attack:     AttackSpec{Kind: "rtf", Neurons: 24, Rounds: []int{1}},
			Model:      ArchSpec{Kind: "mlp", Hidden: 16},
			EvalEvery:  2, TestSamples: 64,
		},
		{
			Name:        "cross-device-1k",
			Description: "1000-device population with Dirichlet(0.1) label skew, 10% dropout, stragglers, and an early RTF burst.",
			Seed:        42,
			Clients:     1000, Rounds: 8, ClientsPerRound: 50, BatchSize: 4,
			Dataset:    DatasetSpec{Classes: 10, Channels: 1, Height: 8, Width: 8, Samples: 4000},
			Partition:  "dirichlet:0.1",
			Sampling:   "size",
			Dropout:    0.1,
			Straggler:  StragglerSpec{Fraction: 0.2, MeanDelayMS: 60, BaseDelayMS: 5},
			DeadlineMS: 120,
			Defense:    DefenseSpec{Kind: "oasis:MR", Fraction: 0.3},
			Attack:     AttackSpec{Kind: "rtf", Neurons: 48, FirstRound: 1, LastRound: 2},
			Model:      ArchSpec{Kind: "mlp", Hidden: 32},
			EvalEvery:  4, TestSamples: 128,
		},
		{
			Name:        "flaky-hospital",
			Description: "20 hospitals with wildly unequal cohorts, heavy dropout and stragglers, median aggregation, OASIS everywhere.",
			Seed:        42,
			Clients:     20, Rounds: 10, ClientsPerRound: 10, BatchSize: 8,
			Dataset:    DatasetSpec{Classes: 6, Channels: 1, Height: 16, Width: 16, Samples: 800},
			Partition:  "quantity:1",
			Sampling:   "size",
			Aggregator: "median",
			Dropout:    0.3,
			Straggler:  StragglerSpec{Fraction: 0.5, MeanDelayMS: 200, BaseDelayMS: 20},
			DeadlineMS: 250,
			Defense:    DefenseSpec{Kind: "oasis:MR", Fraction: 1},
			Model:      ArchSpec{Kind: "mlp", Hidden: 32},
			EvalEvery:  5, TestSamples: 128,
		},
		{
			Name:        "qbi-probe",
			Description: "60 clients facing a QBI bias-initialization burst; gradient pruning on half the population.",
			Seed:        42,
			Clients:     60, Rounds: 6, ClientsPerRound: 15, BatchSize: 8,
			Dataset:   DatasetSpec{Classes: 6, Channels: 1, Height: 8, Width: 8, Samples: 960},
			Partition: "dirichlet:0.3",
			Dropout:   0.05,
			Defense:   DefenseSpec{Kind: "prune:0.3", Fraction: 0.5},
			Attack:    AttackSpec{Kind: "qbi", Neurons: 48, AnticipatedBatch: 8, FirstRound: 1, LastRound: 3},
			Model:     ArchSpec{Kind: "mlp", Hidden: 32},
			EvalEvery: 3, TestSamples: 128,
		},
		{
			Name:        "loki-population",
			Description: "300-client sampled population under a sustained LOKI-style scaled-kernel attack; ATS replacement on half.",
			Seed:        42,
			Clients:     300, Rounds: 6, ClientsPerRound: 30, BatchSize: 4,
			Dataset:   DatasetSpec{Classes: 8, Channels: 1, Height: 8, Width: 8, Samples: 2400},
			Partition: "quantity:0.5",
			Sampling:  "size",
			Dropout:   0.1,
			Defense:   DefenseSpec{Kind: "ats:MR", Fraction: 0.5},
			Attack:    AttackSpec{Kind: "loki", Neurons: 64, FirstRound: 1, LastRound: 4},
			Model:     ArchSpec{Kind: "mlp", Hidden: 32},
			EvalEvery: 3, TestSamples: 128,
		},
		{
			Name:        "cross-device-1M",
			Description: "One million virtual devices, 1024 sampled per round — the OASIS cross-device regime at honest scale.",
			Seed:        42,
			Clients:     1_000_000, Rounds: 3, ClientsPerRound: 1024, BatchSize: 2,
			Dataset:    DatasetSpec{Classes: 10, Channels: 1, Height: 8, Width: 8, Samples: 2_000_000},
			Partition:  "iid",
			Sampling:   "uniform",
			Dropout:    0.05,
			Straggler:  StragglerSpec{Fraction: 0.1, MeanDelayMS: 80, BaseDelayMS: 5},
			DeadlineMS: 150,
			Defense:    DefenseSpec{Kind: "oasis:MR", Fraction: 0.2},
			Attack:     AttackSpec{Kind: "rtf", Neurons: 32, FirstRound: 1, LastRound: 1},
			Model:      ArchSpec{Kind: "mlp", Hidden: 32},
			EvalEvery:  0, TestSamples: 128,
		},
		{
			Name:        "adversarial-burst",
			Description: "100 clients training honestly until a mid-run CAH burst; half the population runs DP-SGD.",
			Seed:        42,
			Clients:     100, Rounds: 10, ClientsPerRound: 20, BatchSize: 8,
			Dataset:   DatasetSpec{Classes: 8, Channels: 1, Height: 8, Width: 8, Samples: 1600},
			Partition: "dirichlet:0.5",
			Dropout:   0.05,
			Defense:   DefenseSpec{Kind: "dpsgd:1,0.1", Fraction: 0.5},
			Attack:    AttackSpec{Kind: "cah", Neurons: 32, AnticipatedBatch: 8, FirstRound: 2, LastRound: 4},
			Model:     ArchSpec{Kind: "mlp", Hidden: 32},
			EvalEvery: 5, TestSamples: 128,
		},
	}
}

// Preset returns the named preset scenario.
func Preset(name string) (Scenario, bool) {
	for _, s := range Presets() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// PresetNames lists the preset identifiers in order.
func PresetNames() []string {
	ps := Presets()
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
