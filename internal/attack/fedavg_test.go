package attack

import (
	"testing"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// TestRTFExtendsToFedAvgPseudoGradients goes beyond the paper's FedSGD
// setting: when clients run several local SGD steps and upload the weight
// displacement (w₀ − w_k)/η, the displacement of the malicious layer is the
// sum of the per-step gradients at slightly drifted thresholds — and
// adjacent-bin differencing still isolates individual samples. OASIS must
// therefore be applied in FedAvg deployments too, and the companion test
// shows it still works there.
func TestRTFExtendsToFedAvgPseudoGradients(t *testing.T) {
	ds := data.NewSynthCIFAR100(11)
	c, h, w := ds.Shape()
	dims := ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(40, 1)
	rtf, err := NewRTF(dims, ds.NumClasses(), 400, ds, rng, 256)
	if err != nil {
		t.Fatal(err)
	}

	runTwoLocalSteps := func(defend bool) (Evaluation, int) {
		victim, err := rtf.BuildVictim(rng)
		if err != nil {
			t.Fatal(err)
		}
		const lr = 0.01
		var originals []*imaging.Image
		var pgw, pgb *tensor.Tensor
		for step := 0; step < 2; step++ {
			batch, err := data.RandomBatch(ds, rng, 8)
			if err != nil {
				t.Fatal(err)
			}
			originals = append(originals, batch.Images...)
			client := batch
			if defend {
				client = core.New(augment.MajorRotation{}).ApplyBatch(batch)
			}
			gw, gb, _ := victim.Gradients(client)
			if pgw == nil {
				pgw, pgb = gw, gb
			} else {
				pgw.AddInPlace(gw)
				pgb.AddInPlace(gb)
			}
			// Local SGD step: the next gradient is computed at w₁.
			for _, p := range victim.Net.Params() {
				p.W.AddScaledInPlace(-lr, p.G)
			}
		}
		ev := Evaluate(rtf.Reconstruct(pgw, pgb), originals)
		verbatim := 0
		for _, p := range ev.PerOriginalBest {
			if p > 100 {
				verbatim++
			}
		}
		return ev, verbatim
	}

	evRaw, verbatimRaw := runTwoLocalSteps(false)
	if verbatimRaw < 3 {
		t.Errorf("FedAvg pseudo-gradient inversion recovered only %d/16 verbatim — attack should extend", verbatimRaw)
	}
	recognizable := 0
	for _, p := range evRaw.PerOriginalBest {
		if p > 30 {
			recognizable++
		}
	}
	if recognizable < 12 {
		t.Errorf("only %d/16 originals recognizable from FedAvg updates", recognizable)
	}

	evDef, verbatimDef := runTwoLocalSteps(true)
	if verbatimDef != 0 {
		t.Errorf("OASIS-defended FedAvg still leaked %d verbatim images", verbatimDef)
	}
	if evDef.MeanPSNR() >= evRaw.MeanPSNR() {
		t.Errorf("defense did not reduce FedAvg inversion quality: %.1f vs %.1f",
			evDef.MeanPSNR(), evRaw.MeanPSNR())
	}
}
