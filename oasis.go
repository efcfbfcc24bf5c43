// Package oasis is the public API of this repository: a reproduction of
// "OASIS: Offsetting Active Reconstruction Attacks in Federated Learning"
// (Jeter, Nguyen, Alharbi, Thai — ICDCS 2024).
//
// The package re-exports the pieces a downstream user composes:
//
//   - datasets (synthetic stand-ins for the paper's ImageNet/CIFAR100),
//   - the OASIS defense (batch augmentation per Eq. 7 of the paper),
//   - the active reconstruction attacks it offsets (RTF, CAH, and the
//     single-layer gradient inversion),
//   - the federated-learning protocol with dishonest-server hooks,
//   - PSNR-based attack evaluation, and
//   - the experiment registry that regenerates every table and figure.
//
// # Quick start
//
//	ds := oasis.NewSynthCIFAR100(42)
//	rng := oasis.NewRand(1, 2)
//	batch, _ := oasis.RandomBatch(ds, rng, 8)
//
//	atk, _ := oasis.NewRTFAttack(ds, 500, rng)      // dishonest server
//	def, _ := oasis.NewDefense("MR")                 // client-side OASIS
//
//	defended, _ := def.Apply(batch)
//	ev, _, _ := atk.Run(defended, batch.Images, rng)
//	fmt.Printf("mean PSNR %.1f dB\n", ev.MeanPSNR()) // ~17 dB: unrecognizable
//
// See examples/ for complete programs, DESIGN.md for the system inventory
// and EXPERIMENTS.md for paper-vs-measured results.
package oasis

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
)

// Core data types.
type (
	// Image is a C×H×W float64 raster in [0, 1].
	Image = imaging.Image
	// Batch is one client's local training batch D.
	Batch = data.Batch
	// Dataset is an indexable labeled image collection.
	Dataset = data.Dataset
	// Policy produces the augmented counterparts X′_t of an image.
	Policy = augment.Policy
	// Defense is the OASIS batch preprocessor (D → D′, Eq. 7).
	Defense = core.Defense
	// Prop1Report quantifies the Proposition-1 condition for a defense.
	Prop1Report = core.Prop1Report
	// Evaluation summarizes attack success against the original batch.
	Evaluation = attack.Evaluation
	// ImageDims is the raster geometry used by the attacks.
	ImageDims = attack.ImageDims
	// RTFAttack is the "Robbing the Fed" imprint attack.
	RTFAttack = attack.RTF
	// CAHAttack is the "Curious Abandon Honesty" trap-weight attack.
	CAHAttack = attack.CAH
	// LinearAttack is the single-layer gradient inversion of §IV-D.
	LinearAttack = attack.LinearInversion
)

// NewRand returns a deterministic PCG generator; all randomness in this
// library is threaded through explicit generators.
func NewRand(seed1, seed2 uint64) *rand.Rand { return nn.RandSource(seed1, seed2) }

// NewSynthImageNet returns the 10-class 64×64×3 synthetic stand-in for the
// paper's ImageNet subset.
func NewSynthImageNet(seed uint64) Dataset { return data.NewSynthImageNet(seed) }

// NewSynthCIFAR100 returns the 100-class 32×32×3 synthetic stand-in for
// CIFAR100.
func NewSynthCIFAR100(seed uint64) Dataset { return data.NewSynthCIFAR100(seed) }

// NewSynthDataset builds a custom synthetic dataset (classes, channels,
// height, width, size).
func NewSynthDataset(name string, classes, c, h, w, n int, seed uint64) Dataset {
	return data.NewSynthCustom(name, classes, c, h, w, n, seed)
}

// RandomBatch draws a batch of the given size without replacement.
func RandomBatch(ds Dataset, rng *rand.Rand, size int) (*Batch, error) {
	return data.RandomBatch(ds, rng, size)
}

// UniqueLabelBatch draws one sample per distinct label (the linear-attack
// setting of §IV-D).
func UniqueLabelBatch(ds Dataset, rng *rand.Rand, size int) (*Batch, error) {
	return data.UniqueLabelBatch(ds, rng, size)
}

// NewDefense builds the OASIS defense for a policy label: "MR" (major
// rotation), "mR" (minor rotation), "SH" (shearing), "HFlip", "VFlip", or
// "MR+SH". The label "WO" (without OASIS) is rejected — use a nil defense.
func NewDefense(label string) (*Defense, error) {
	p, err := augment.ByName(label)
	if err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("oasis: %q is the no-defense baseline; use a nil *Defense instead", label)
	}
	return core.New(p), nil
}

// NewDefenseWithPolicy builds the OASIS defense around a custom policy.
func NewDefenseWithPolicy(p Policy) *Defense { return core.New(p) }

// PolicyNames lists the standard policy labels in the order the paper's
// tables use them.
func PolicyNames() []string { return []string{"MR", "mR", "SH", "HFlip", "VFlip", "MR+SH"} }

// PSNR returns the peak signal-to-noise ratio (dB) between a reconstruction
// and a reference image; see the paper's Figure 2.
func PSNR(recon, ref *Image) float64 { return imaging.PSNR(recon, ref) }

// dims extracts attack geometry from a dataset.
func dims(ds Dataset) ImageDims {
	c, h, w := ds.Shape()
	return ImageDims{C: c, H: h, W: w}
}

// NewRTFAttack calibrates a "Robbing the Fed" attack with n attacked neurons
// against the dataset's public statistics.
func NewRTFAttack(ds Dataset, n int, rng *rand.Rand) (*RTFAttack, error) {
	return attack.NewRTF(dims(ds), ds.NumClasses(), n, ds, rng, 256)
}

// NewCAHAttack calibrates a "Curious Abandon Honesty" attack with n trap
// neurons, tuned for the given anticipated batch size.
func NewCAHAttack(ds Dataset, n, anticipatedBatch int, rng *rand.Rand) (*CAHAttack, error) {
	return attack.NewCAH(dims(ds), ds.NumClasses(), n, ds, rng, 256, anticipatedBatch)
}

// NewLinearAttack builds the single-layer gradient inversion for a dataset.
func NewLinearAttack(ds Dataset) *LinearAttack {
	return attack.NewLinearInversion(dims(ds), ds.NumClasses())
}

// AnalyzeProp1 measures how well a defense satisfies Proposition 1 against a
// malicious layer (w, b as produced by an attack's Layer method).
var AnalyzeProp1 = core.AnalyzeProp1

// Composable defense registry. Every client-side defense — OASIS, the §V
// baselines, and custom registered families — sits behind one two-stage
// contract (rewrite the batch before training, transform the gradients
// before upload) and resolves from a "kind[:arg]" spec, or an ordered
// '|'-chain of them, e.g. "oasis:MR|dpsgd:1,0.1".
type (
	// ClientDefense is the unified two-stage defense contract
	// (ApplyBatch/ApplyGrads/Name); pipelines and every registered kind
	// implement it.
	ClientDefense = defense.Defense
	// DefensePipeline chains registered defenses in order; its Name() is
	// the deterministic composite label, e.g. "oasis(MR)|dpsgd(σ=0.1)".
	DefensePipeline = defense.Pipeline
	// DefenseConfig seeds stochastic defense stages (per-client streams).
	DefenseConfig = defense.Config
	// DefenseConstructor builds one registered defense kind from its spec
	// argument.
	DefenseConstructor = defense.Constructor
)

// NewDefensePipeline parses a defense pipeline spec ("prune:0.3", or a chain
// like "oasis:MR|dpsgd:1,0.1") into an ordered two-stage chain. Stochastic
// stages draw from rng; give every client its own generator (nil is allowed
// for parse-only validation). Unknown kinds error with DefenseNames().
func NewDefensePipeline(spec string, rng *rand.Rand) (*DefensePipeline, error) {
	return defense.NewPipeline(spec, defense.Config{Rng: rng})
}

// ComposeDefenses builds a pipeline directly from constructed defenses.
func ComposeDefenses(stages ...ClientDefense) *DefensePipeline { return defense.Compose(stages...) }

// DefenseNames lists the registered defense kinds NewDefensePipeline accepts
// as pipeline segments.
func DefenseNames() []string { return defense.Names() }

// RegisterDefense adds a custom defense family to the registry; it then
// becomes a valid scenario defense kind, sweep grid column, and pipeline
// segment.
func RegisterDefense(kind string, ctor DefenseConstructor) error {
	return defense.Register(kind, ctor)
}

// AttachDefense wires a defense's two stages into a federated client: the
// batch stage becomes the client's preprocessor and the gradient stage its
// upload transform. Stateful defenses (DPSGD, ATS) must not be attached to
// more than one client; build one pipeline per client.
func AttachDefense(c *FLLocalClient, d ClientDefense) {
	c.Pre = defense.BatchAdapter{D: d}
	c.GradDef = defense.GradAdapter{D: d}
}

// Experiment access.
type (
	// ExperimentConfig scales and seeds an experiment run.
	ExperimentConfig = experiments.Config
	// ExperimentResult carries an experiment's tables and artifacts.
	ExperimentResult = experiments.Result
	// SweepConfig shapes a parallel multi-seed attack×defense grid
	// evaluation: Replicates re-runs every cell at derived seeds,
	// CellWorkers bounds grid-level concurrency (distinct from the per-cell
	// client Workers), and results merge in deterministic grid order.
	SweepConfig = experiments.SweepConfig
	// SweepReport is the structured sweep outcome — byte-identical across
	// Workers and CellWorkers values for a fixed seed.
	SweepReport = experiments.SweepReport
	// SweepCell is one (attack, defense) grid entry with mean±std
	// PSNR/SSIM/accuracy over the replicate seeds.
	SweepCell = experiments.SweepCell
)

// RunSweep evaluates the attack×defense grid under the given config. On a
// cell failure the partial report (every completed cell in grid order) is
// returned alongside the error.
func RunSweep(cfg SweepConfig) (*SweepReport, error) { return experiments.RunSweep(cfg) }

// SweepReplicateSeeds derives the per-replicate scenario seeds a sweep runs:
// the base seed first, then distinct seeds from a dedicated keyed stream
// (stable — growing n never changes earlier seeds).
func SweepReplicateSeeds(base uint64, n int) []uint64 { return experiments.ReplicateSeeds(base, n) }

// DefaultSweepDefenses lists the default defense axis of the sweep grid.
func DefaultSweepDefenses() []string { return experiments.DefaultSweepDefenses() }

// DefaultSweepScenario returns the default base population sweep cells run.
func DefaultSweepScenario() Scenario { return experiments.DefaultSweepScenario() }

// Experiments lists the registered experiment IDs (fig2…fig14, table1, …).
func Experiments() []string { return experiments.IDs() }

// RunExperiment executes one registered experiment by ID.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentResult, error) {
	spec, ok := experiments.ByID(id)
	if !ok {
		return nil, fmt.Errorf("oasis: unknown experiment %q (have %v)", id, experiments.IDs())
	}
	return spec.Run(cfg)
}
