package defense

import (
	"fmt"
	rand "math/rand/v2"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Defense is the two-stage client defense contract (fl.Defense): a batch
// rewrite before gradients are computed (ApplyBatch), a gradient transform
// before upload (ApplyGrads), or both, with the unused stage the identity.
// The split mirrors where the paper's countermeasures act: OASIS and ATS
// are batch-stage, DPSGD and pruning are gradient-stage, and a Pipeline
// stacks any of them. The protocol layer declares it because its clients
// call it; every registered family implements it.
type Defense = fl.Defense

// Config carries everything a registered constructor may need. The zero
// value is valid for parse-only validation.
type Config struct {
	// Rng seeds stochastic stages (DPSGD noise, ATS transform choice). Give
	// every client its own stream: stateful stages must not be shared across
	// concurrently-trained clients. NewPipeline splits one child stream off
	// per stage, so appending a stage never perturbs the draws of the stages
	// before it. A nil Rng is accepted for validation; applying a stochastic
	// stage then panics.
	Rng *rand.Rand
}

// split derives an independent per-stage stream from the Config's Rng.
func (c Config) split() Config {
	if c.Rng == nil {
		return c
	}
	return Config{Rng: rand.New(rand.NewPCG(c.Rng.Uint64(), c.Rng.Uint64()))}
}

// Constructor builds one defense family from its spec argument (the part
// after the first ':') and a resolved Config.
type Constructor func(arg string, cfg Config) (Defense, error)

// registry maps defense kinds to their constructors, guarded by registryMu
// so Register is safe against concurrent New/Names/Known lookups (scenario
// validation may run while a library user registers a custom family).
var registryMu sync.RWMutex

var registry = map[string]Constructor{
	"oasis": newOASISStage,
	"dpsgd": newDPSGDStage,
	"prune": newPruneStage,
	"ats":   newATSStage,
}

// Register adds a defense family to the registry; it then becomes a valid
// scenario defense kind, sweep grid column, and pipeline segment. It errors
// on empty or duplicate kinds so callers cannot silently shadow a built-in,
// and on kinds containing the ':' or '|' metacharacters of the spec syntax.
func Register(kind string, ctor Constructor) error {
	if kind == "" || ctor == nil {
		return fmt.Errorf("defense: Register needs a non-empty kind and constructor")
	}
	if strings.ContainsAny(kind, ":|") {
		return fmt.Errorf("defense: kind %q must not contain ':' or '|'", kind)
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		return fmt.Errorf("defense: kind %q already registered", kind)
	}
	registry[kind] = ctor
	return nil
}

// Names lists the registered defense kinds in sorted order.
func Names() []string {
	registryMu.RLock()
	names := make([]string, 0, len(registry))
	for k := range registry {
		names = append(names, k)
	}
	registryMu.RUnlock()
	sort.Strings(names)
	return names
}

// Known reports whether kind is a registered defense family.
func Known(kind string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[kind]
	return ok
}

// New constructs a single defense from a "kind[:arg]" spec. Unknown kinds
// error with the full list of registered families, so validation messages
// never go stale.
func New(spec string, cfg Config) (Defense, error) {
	kind, arg, _ := strings.Cut(spec, ":")
	registryMu.RLock()
	ctor, ok := registry[kind]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("defense: unknown kind %q (want one of %s)",
			kind, strings.Join(Names(), ", "))
	}
	return ctor(arg, cfg)
}

// Pipeline chains registered defenses in order: every stage's batch rewrite
// feeds the next, and gradient stages run in the same order after training.
// It implements Defense, so pipelines nest anywhere a single defense goes.
type Pipeline struct {
	stages []Defense
}

var _ Defense = (*Pipeline)(nil)

// NewPipeline parses a '|'-separated spec ("oasis:MR|dpsgd:1,0.1") into an
// ordered chain. Every segment must be a valid "kind[:arg]" spec; malformed
// specs error naming the offending segment. Each stage receives its own
// random stream split off cfg.Rng.
func NewPipeline(spec string, cfg Config) (*Pipeline, error) {
	segs := strings.Split(spec, "|")
	p := &Pipeline{stages: make([]Defense, 0, len(segs))}
	for i, seg := range segs {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("defense: pipeline %q: segment %d is empty", spec, i+1)
		}
		d, err := New(seg, cfg.split())
		if err != nil {
			if len(segs) == 1 {
				return nil, err // no chain context to add
			}
			return nil, fmt.Errorf("defense: pipeline %q: segment %d: %w", spec, i+1, err)
		}
		p.stages = append(p.stages, d)
	}
	return p, nil
}

// Compose builds a pipeline directly from constructed defenses.
func Compose(stages ...Defense) *Pipeline {
	return &Pipeline{stages: append([]Defense(nil), stages...)}
}

// Name returns the deterministic composite label: the stage names joined
// with "|" in application order, e.g. "oasis(MR)|dpsgd(σ=0.1)".
func (p *Pipeline) Name() string {
	names := p.StageNames()
	if len(names) == 0 {
		return "none"
	}
	return strings.Join(names, "|")
}

// Stages returns the chain in application order.
func (p *Pipeline) Stages() []Defense { return append([]Defense(nil), p.stages...) }

// StageNames returns each stage's resolved label in application order.
func (p *Pipeline) StageNames() []string {
	names := make([]string, len(p.stages))
	for i, s := range p.stages {
		names[i] = s.Name()
	}
	return names
}

// ApplyBatch threads the batch through every stage in order.
func (p *Pipeline) ApplyBatch(b *data.Batch) *data.Batch {
	for _, s := range p.stages {
		b = s.ApplyBatch(b)
	}
	return b
}

// ApplyGrads applies every stage's gradient transform in order.
func (p *Pipeline) ApplyGrads(grads []*tensor.Tensor) {
	for _, s := range p.stages {
		s.ApplyGrads(grads)
	}
}

// NeedsSquare reports whether d, or any stage of a pipeline, augments with
// a policy that needs square images (augment.NeedsSquare): applied to a
// non-square batch, such a defense panics.
func NeedsSquare(d Defense) bool {
	switch d := d.(type) {
	case *Pipeline:
		return slices.ContainsFunc(d.stages, NeedsSquare)
	case oasisStage:
		return augment.NeedsSquare(d.Policy)
	case *ATS:
		return augment.NeedsSquare(d.Policy)
	}
	return false
}

// --- Built-in stages -------------------------------------------------------

// oasisStage is the OASIS batch expansion (internal/core) labelled
// "oasis(<policy>)" for pipelines; core.Defense's own Name is the bare
// policy label the figure and Proposition-1 tables print.
type oasisStage struct {
	*core.Defense
}

func newOASISStage(arg string, _ Config) (Defense, error) {
	p, err := augment.ByName(arg)
	if err != nil {
		return nil, fmt.Errorf("defense: oasis:%s: %w", arg, err)
	}
	if p == nil {
		return nil, fmt.Errorf("defense: %q is the no-defense baseline; omit the defense instead", "oasis:"+arg)
	}
	return oasisStage{core.New(p)}, nil
}

func (s oasisStage) Name() string { return "oasis(" + s.Defense.Name() + ")" }

func newDPSGDStage(arg string, cfg Config) (Defense, error) {
	clipStr, sigmaStr, ok := strings.Cut(arg, ",")
	if !ok {
		return nil, fmt.Errorf("defense: %q: want dpsgd:<clip>,<sigma>", "dpsgd:"+arg)
	}
	clip, err1 := strconv.ParseFloat(clipStr, 64)
	sigma, err2 := strconv.ParseFloat(sigmaStr, 64)
	if err1 != nil || err2 != nil {
		return nil, fmt.Errorf("defense: %q: want dpsgd:<clip>,<sigma> with numeric parameters", "dpsgd:"+arg)
	}
	d, err := NewDPSGD(clip, sigma, cfg.Rng)
	if err != nil {
		return nil, err
	}
	return d, nil
}

func newPruneStage(arg string, _ Config) (Defense, error) {
	keep, err := strconv.ParseFloat(arg, 64)
	if err != nil {
		return nil, fmt.Errorf("defense: %q: want prune:<keep> with keep in (0, 1]", "prune:"+arg)
	}
	d, err := NewPruning(keep)
	if err != nil {
		return nil, err
	}
	return d, nil
}

func newATSStage(arg string, cfg Config) (Defense, error) {
	p, err := augment.ByName(arg)
	if err != nil {
		return nil, fmt.Errorf("defense: ats:%s: %w", arg, err)
	}
	if p == nil {
		return nil, fmt.Errorf("defense: %q needs a transformation policy to replace with", "ats:"+arg)
	}
	d, err := NewATS(p, cfg.Rng)
	if err != nil {
		return nil, err
	}
	return d, nil
}
