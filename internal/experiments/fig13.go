package experiments

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// Fig13 reproduces the gradient-inversion attack on linear models (§IV-D):
// a single-layer logistic model, batches with unique labels, B ∈ {8, 64},
// per transformation. The B=64 unique-label requirement needs ≥ 64 classes;
// the 10-class synthetic ImageNet is therefore replaced by a 100-class
// variant at the same resolution for this experiment (see README, "Running
// the paper experiments" — the paper's full ImageNet has 1000 classes, so
// unique labels were free).
func Fig13(cfg Config) (*Result, error) {
	imnet := data.NewSynthCustom("synth-imagenet-100c", 100, 3, 64, 64, 4096, cfg.Seed)
	cifar := data.NewSynthCIFAR100(cfg.Seed)
	batchSizes := []int{8, 64}
	trials := 3
	if cfg.Quick {
		batchSizes = []int{8}
		trials = 1
	}

	res := &Result{ID: "fig13"}
	t := metrics.NewTable("Figure 13: PSNR of linear-model gradient inversion per transformation", psnrBoxHeader...)
	for _, ds := range []data.Dataset{imnet, cifar} {
		c, h, w := ds.Shape()
		dims := attack.ImageDims{C: c, H: h, W: w}
		atk := attack.NewLinearInversion(dims, ds.NumClasses())
		for _, b := range batchSizes {
			prefix := []string{ds.Name(), fmt.Sprintf("%d", b), fmt.Sprintf("%d", ds.NumClasses())}
			err := policyBoxRows(t, prefix, fig5Policies, func(polName string) (trialLoop, *rand.Rand, error) {
				rng := nn.RandSource(cfg.Seed^hashLabel("fig13"+polName), uint64(b))
				return trialLoop{atk: atk, ds: ds, batch: b, trials: trials, draw: data.UniqueLabelBatch}, rng, nil
			})
			if err != nil {
				return nil, err
			}
			cfg.logf("fig13 %s B=%d done", ds.Name(), b)
		}
	}
	res.Tables = append(res.Tables, t)
	if err := res.saveCSV(cfg, "fig13.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}
