package experiments

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// Figures 3 and 4 are the attacker's hyperparameter search: average PSNR of
// undefended reconstructions over a grid of batch sizes and attacked-neuron
// counts, per dataset. The paper uses the per-dataset optima from these grids
// as the attack settings for Figures 5 and 6.

func gridSizes(cfg Config) (batches, neurons []int, trials int) {
	if cfg.Quick {
		return []int{8, 32}, []int{100, 300}, 1
	}
	return []int{8, 16, 32, 64, 128, 256},
		[]int{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000},
		2
}

// Fig3 sweeps the RTF attack.
func Fig3(cfg Config) (*Result, error) {
	probeSize := 256
	if cfg.Quick {
		probeSize = 64
	}
	return gridExperiment(cfg, 3, "RTF", 0xf16_3, func(set evalSet, _ int) (gridBuilder, error) {
		return func(n int, rng *rand.Rand) (trialAttack, error) {
			return attack.NewRTF(set.dims, set.ds.NumClasses(), n, set.ds, rng, probeSize)
		}, nil
	})
}

// cahAnticipatedBatch is the batch size CAH calibrates its trap biases for.
// The attacker fixes the trap scale a priori — it cannot know the victim's
// real batch size — which is what makes the attack degrade as B grows
// (Figure 4's declining rows).
const cahAnticipatedBatch = 16

// Fig4 sweeps the CAH attack. Calibration is hoisted: one max-width trap
// layer per dataset is sliced per neuron count and reused across batch sizes.
func Fig4(cfg Config) (*Result, error) {
	probeSize := 128
	if cfg.Quick {
		probeSize = 48
	}
	return gridExperiment(cfg, 4, "CAH", 0xf16_4, func(set evalSet, maxN int) (gridBuilder, error) {
		calRng := nn.RandSource(cfg.Seed^0xf16_4, hashLabel(set.ds.Name()))
		base, err := attack.NewCAH(set.dims, set.ds.NumClasses(), maxN, set.ds, calRng, probeSize, cahAnticipatedBatch)
		if err != nil {
			return nil, err
		}
		return func(n int, _ *rand.Rand) (trialAttack, error) { return base.Slice(n) }, nil
	})
}

// gridBuilder builds the grid's attack for n attacked neurons, drawing any
// calibration from the batch size's generator.
type gridBuilder func(n int, rng *rand.Rand) (trialAttack, error)

// gridExperiment renders one Figure fig table per dataset: the mean PSNR of
// undefended reconstructions per batch size (rows) and attacked-neuron count
// (columns). prepare runs once per dataset, given the widest neuron count,
// and returns the cell builder; every batch size draws from its own
// generator keyed by salt.
func gridExperiment(cfg Config, fig int, label string, salt uint64, prepare func(set evalSet, maxN int) (gridBuilder, error)) (*Result, error) {
	batches, neurons, trials := gridSizes(cfg)
	id := fmt.Sprintf("fig%d", fig)
	res := &Result{ID: id}
	for _, set := range datasets(cfg) {
		t := metrics.NewTable(
			fmt.Sprintf("Figure %d (%s): %s avg PSNR, rows = batch size, cols = attacked neurons", fig, set.ds.Name(), label),
			append([]string{"B\\n"}, intHeaders(neurons)...)...)
		build, err := prepare(set, neurons[len(neurons)-1])
		if err != nil {
			return nil, err
		}
		for _, b := range batches {
			rng := nn.RandSource(cfg.Seed^salt, uint64(b))
			row := []string{fmt.Sprintf("%d", b)}
			for _, n := range neurons {
				atk, err := build(n, rng)
				if err != nil {
					return nil, err
				}
				run, err := trialLoop{atk: atk, ds: set.ds, batch: b, trials: trials}.run(rng)
				if err != nil {
					return nil, err
				}
				row = append(row, fmt.Sprintf("%.2f", run.ev.MeanPSNR()))
			}
			t.AddRow(row...)
			cfg.logf("%s %s B=%d done", id, set.ds.Name(), b)
		}
		res.Tables = append(res.Tables, t)
		if err := res.saveCSV(cfg, fmt.Sprintf("%s_%s.csv", id, set.ds.Name()), t); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func intHeaders(ns []int) []string {
	out := make([]string, len(ns))
	for i, n := range ns {
		out[i] = fmt.Sprintf("%d", n)
	}
	return out
}
