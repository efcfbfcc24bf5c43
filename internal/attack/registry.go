package attack

import (
	"fmt"
	rand "math/rand/v2"
	"sort"
	"strings"
	"sync"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Attack is the common contract every registered reconstruction attack
// implements: it exposes its planted layer, can build the malicious victim
// model a dishonest server dispatches, invert an uploaded (∂W, ∂b) pair of
// the planted layer, and run the complete measurement loop against a batch.
// The built-in families are all [Imprint]s.
type Attack interface {
	// Name returns the registry kind ("rtf", "cah", "qbi", "loki", …).
	Name() string
	// Layer returns copies of the planted layer's weight [n×d] and bias [n].
	Layer() (w, b *tensor.Tensor)
	// BuildVictim assembles the malicious model around the planted layer.
	BuildVictim(rng *rand.Rand) (*Victim, error)
	// Reconstruct inverts the planted layer's uploaded gradients into images.
	Reconstruct(gw, gb *tensor.Tensor) []*imaging.Image
	// Run executes the complete attack against a (possibly defended) batch
	// and evaluates the reconstructions against the original images.
	Run(clientBatch *data.Batch, originals []*imaging.Image, rng *rand.Rand) (Evaluation, []*imaging.Image, error)
}

// Config carries everything a registered constructor may need to calibrate
// an attack. Zero values resolve to defaults where one is sensible.
type Config struct {
	// Dims is the raster geometry of the inputs the victim layer sees.
	Dims ImageDims
	// Classes is the classification head width.
	Classes int
	// Neurons sizes the planted malicious layer.
	Neurons int
	// Probe is the attacker's public data used for calibration.
	Probe data.Dataset
	// ProbeSize bounds how many probe samples calibration reads (default
	// 256, clamped to the probe size).
	ProbeSize int
	// Batch is the batch size the attacker anticipates; bias placement
	// targets ~1/Batch activations per neuron (default 8).
	Batch int
	// Rng drives every random draw of calibration.
	Rng *rand.Rand
}

// withDefaults resolves the Config's zero values.
func (c Config) withDefaults() Config {
	if c.ProbeSize == 0 {
		c.ProbeSize = 256
	}
	if c.Batch == 0 {
		c.Batch = 8
	}
	return c
}

// Constructor calibrates one attack family from a resolved Config.
type Constructor func(cfg Config) (Attack, error)

// registry maps attack kinds to their constructors, guarded by registryMu
// so Register is safe against concurrent New/Names/Known lookups (scenario
// validation may run while a library user registers a custom family).
// Access it through Register/New/Names so the lookup and its error message
// stay consistent.
var registryMu sync.RWMutex

var registry = map[string]Constructor{
	"rtf": func(cfg Config) (Attack, error) {
		return NewRTF(cfg.Dims, cfg.Classes, cfg.Neurons, cfg.Probe, cfg.Rng, cfg.ProbeSize)
	},
	"cah": func(cfg Config) (Attack, error) {
		return NewCAH(cfg.Dims, cfg.Classes, cfg.Neurons, cfg.Probe, cfg.Rng, cfg.ProbeSize, cfg.Batch)
	},
	"qbi": func(cfg Config) (Attack, error) {
		return NewQBI(cfg.Dims, cfg.Classes, cfg.Neurons, cfg.Probe, cfg.Rng, cfg.ProbeSize, cfg.Batch)
	},
	"loki": func(cfg Config) (Attack, error) {
		return NewLOKI(cfg.Dims, cfg.Classes, cfg.Neurons, cfg.Probe, cfg.Rng, cfg.ProbeSize, DefaultLOKIScale)
	},
}

// Register adds an attack family to the registry. It errors on empty or
// duplicate kinds so callers cannot silently shadow a built-in.
func Register(kind string, ctor Constructor) error {
	if kind == "" || ctor == nil {
		return fmt.Errorf("attack: Register needs a non-empty kind and constructor")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[kind]; dup {
		return fmt.Errorf("attack: kind %q already registered", kind)
	}
	registry[kind] = ctor
	return nil
}

// Names lists the registered attack kinds in sorted order.
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

// Known reports whether kind is a registered attack family.
func Known(kind string) bool {
	registryMu.RLock()
	defer registryMu.RUnlock()
	_, ok := registry[kind]
	return ok
}

// New calibrates the named attack. Unknown kinds error with the full list of
// registered families, so validation messages never go stale.
func New(kind string, cfg Config) (Attack, error) {
	registryMu.RLock()
	ctor, ok := registry[kind]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("attack: unknown kind %q (want one of %s)",
			kind, strings.Join(Names(), ", "))
	}
	return ctor(cfg.withDefaults())
}
