package experiments

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// fig5Policies are the transformations of Figure 5 (RTF).
var fig5Policies = []string{"WO", "MR", "mR", "SH", "HFlip", "VFlip"}

// fig6Policies are the transformations of Figure 6 (CAH).
var fig6Policies = []string{"WO", "SH", "MR", "MR+SH"}

// Fig5 measures RTF reconstruction quality per transformation at the
// per-dataset optimal (B, n) pairs from Figure 3.
func Fig5(cfg Config) (*Result, error) {
	return transformExperiment(cfg, "fig5", fig5Policies, false)
}

// Fig6 measures CAH reconstruction quality per transformation at the
// per-dataset optimal (B, n) pairs from Figure 4, including the MR+SH
// integration that rescues the B=8 case.
func Fig6(cfg Config) (*Result, error) {
	return transformExperiment(cfg, "fig6", fig6Policies, true)
}

func transformExperiment(cfg Config, id string, policies []string, useCAH bool) (*Result, error) {
	res := &Result{ID: id}
	trials := 3
	probe := 256
	if cfg.Quick {
		trials, probe = 1, 64
	}
	t := metrics.NewTable(figTitle(useCAH), psnrBoxHeader...)
	for _, set := range datasets(cfg) {
		pairs := set.rtfPairs
		if useCAH {
			pairs = set.cahPairs
		}
		if !cfg.Quick && set.dims.Dim() > 10000 {
			trials = 2 // the 64×64 set is ~4× the work per sample
		}
		for _, pair := range pairs {
			b, n := pair[0], pair[1]
			prefix := []string{set.ds.Name(), fmt.Sprintf("%d", b), fmt.Sprintf("%d", n)}
			err := policyBoxRows(t, prefix, policies, func(polName string) (trialLoop, *rand.Rand, error) {
				rng := nn.RandSource(cfg.Seed^hashLabel(id+polName), uint64(b*10000+n))
				atk, err := buildAttack(set, n, useCAH, probe, rng)
				return trialLoop{atk: atk, ds: set.ds, batch: b, trials: trials}, rng, err
			})
			if err != nil {
				return nil, err
			}
			cfg.logf("%s %s (B=%d,n=%d) done", id, set.ds.Name(), b, n)
		}
	}
	res.Tables = append(res.Tables, t)
	if err := res.saveCSV(cfg, id+".csv", t); err != nil {
		return nil, err
	}
	return res, nil
}

func figTitle(useCAH bool) string {
	if useCAH {
		return "Figure 6: PSNR of CAH reconstructions per transformation (green-triangle mean = 'mean' column)"
	}
	return "Figure 5: PSNR of RTF reconstructions per transformation (green-triangle mean = 'mean' column)"
}
