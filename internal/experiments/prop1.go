package experiments

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Prop1 is a mechanism ablation this repository adds on top of the paper's
// figures: it directly measures the Proposition-1 condition per transform
// against the real malicious layers. Three statistics per (attack, policy):
//
//   - same-set: fraction of originals with a transform activating *exactly*
//     the same malicious neurons (Proposition 1's hypothesis);
//   - jaccard: mean best activation-set overlap between an original and its
//     transforms;
//   - solo: fraction of originals that remain the sole activator of some
//     neuron — exactly when Eq. 6 leaks them verbatim.
//
// The table explains Figures 5/6: transforms with high same-set/low solo are
// the ones with low PSNR, and CAH's trap layer needs composed transforms to
// push solo down.
func Prop1(cfg Config) (*Result, error) {
	ds := data.NewSynthCIFAR100(cfg.Seed)
	c, h, w := ds.Shape()
	dims := attack.ImageDims{C: c, H: h, W: w}
	batchSize := 8
	rtfNeurons, cahNeurons, probe, trials := 400, 300, 128, 3
	if cfg.Quick {
		rtfNeurons, cahNeurons, probe, trials = 150, 100, 48, 1
	}
	policies := []string{"WO", "MR", "mR", "SH", "HFlip", "VFlip", "MR+SH"}

	rng := nn.RandSource(cfg.Seed^0x9601, 1)
	rtf, err := attack.NewRTF(dims, ds.NumClasses(), rtfNeurons, ds, rng, probe)
	if err != nil {
		return nil, err
	}
	cah, err := attack.NewCAH(dims, ds.NumClasses(), cahNeurons, ds, rng, probe, batchSize)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Proposition-1 activation-set analysis (B=8, synth-cifar100)",
		"attack", "policy", "same_set_frac", "mean_jaccard", "solo_neuron_frac")
	res := &Result{ID: "prop1"}
	rtfW, rtfB := rtf.Layer()
	cahW, cahB := cah.Layer()
	layers := []struct {
		name string
		w, b *tensor.Tensor
	}{
		{"RTF", rtfW, rtfB},
		{"CAH", cahW, cahB},
	}

	for _, layer := range layers {
		for _, polName := range policies {
			def, err := policyDefense(polName)
			if err != nil {
				return nil, err
			}
			if def == nil {
				def = &core.Defense{} // nil policy: analyze the raw batch
			}
			agg := core.Prop1Report{Policy: polName}
			for tr := 0; tr < trials; tr++ {
				batch, err := data.RandomBatch(ds, rng, batchSize)
				if err != nil {
					return nil, err
				}
				rep, err := core.AnalyzeProp1(def, batch, layer.w, layer.b)
				if err != nil {
					return nil, err
				}
				agg.SameSetFraction += rep.SameSetFraction
				agg.MeanJaccard += rep.MeanJaccard
				agg.SoloNeuronFraction += rep.SoloNeuronFraction
			}
			inv := 1.0 / float64(trials)
			t.AddRow(layer.name, polName,
				fmt.Sprintf("%.3f", agg.SameSetFraction*inv),
				fmt.Sprintf("%.3f", agg.MeanJaccard*inv),
				fmt.Sprintf("%.3f", agg.SoloNeuronFraction*inv))
		}
		cfg.logf("prop1 %s done", layer.name)
	}
	res.Tables = append(res.Tables, t)
	if err := res.saveCSV(cfg, "prop1.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}
