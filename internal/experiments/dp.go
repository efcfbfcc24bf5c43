package experiments

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// DPTradeoff quantifies the §V discussion. For each DPSGD noise multiplier
// σ (noise std = σ·clip applied after clipping the update to norm clip) it
// reports:
//
//   - the mean PSNR of RTF reconstructions for two dishonest servers: a
//     plain victim (head gain 1) and one that amplifies its malicious head
//     ×64 hoping to out-shout the noise;
//   - the test accuracy of a classifier trained under the same (clip, σ).
//
// Two findings. First, a negative result for the attacker: update clipping
// neutralizes head amplification — scaling the malicious gradients scales
// the update norm equally, so the post-clip per-bin bias gradient (the Eq. 6
// denominator) is unchanged, and both gain columns die at the same σ.
// Second, the trade-off the paper argues about (§V): in this substrate the
// σ that blinds RTF sits well below the σ that destroys accuracy, so
// clipped DPSGD is a workable defense here — at GPU scale ([17], [18]) the
// utility penalty bites much earlier, which is the paper's position. Either
// way OASIS (Figures 5/6) reaches comparable or lower PSNR with zero noise
// and zero accuracy cost (Table I).
func DPTradeoff(cfg Config) (*Result, error) {
	ds := data.NewSynthCustom("synth-dp", 10, 3, 24, 24, 2048, cfg.Seed)
	c, h, w := ds.Shape()
	dims := attack.ImageDims{C: c, H: h, W: w}
	sigmas := []float64{0, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1}
	neurons, trials := 300, 3
	trainN, testN, epochs := 240, 120, 6
	if cfg.Quick {
		sigmas = []float64{0, 1e-5, 1e-1}
		neurons, trials = 120, 1
		trainN, testN, epochs = 120, 48, 4
	}
	rng := nn.RandSource(cfg.Seed^0xd9, 1)
	rtf, err := attack.NewRTF(dims, ds.NumClasses(), neurons, ds, rng, 128)
	if err != nil {
		return nil, err
	}
	malW, malB := rtf.Layer()
	plain, err := attack.NewVictimGain(dims, ds.NumClasses(), malW, malB, rng, 1)
	if err != nil {
		return nil, err
	}
	amplified, err := attack.NewVictimGain(dims, ds.NumClasses(), malW, malB, rng, 64)
	if err != nil {
		return nil, err
	}
	splits, err := data.Split(ds.Len(), rng, trainN, testN)
	if err != nil {
		return nil, err
	}
	trainSet := data.NewSubset(ds, splits[0], "dp-train")
	testSet := data.NewSubset(ds, splits[1], "dp-test")

	t := metrics.NewTable("DP trade-off (§V): DPSGD noise vs RTF reconstruction and utility (best PSNR per original)",
		"sigma", "psnr_gain1_dB", "psnr_gain64_dB", "test_accuracy_%")
	res := &Result{ID: "dp"}
	const clip = 1.0
	for _, sigma := range sigmas {
		psnrPlain, err := dpAttackPSNR(ds, rtf, plain, clip, sigma, trials, rng)
		if err != nil {
			return nil, err
		}
		psnrAmp, err := dpAttackPSNR(ds, rtf, amplified, clip, sigma, trials, rng)
		if err != nil {
			return nil, err
		}
		// Initialization and batch order are pinned so σ is the only
		// variable across rows.
		net := nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: c, NumClasses: trainSet.NumClasses(), Width: 4}, nn.RandSource(0xdb0, 7))
		var def fl.Defense
		if sigma > 0 {
			if def, err = defense.NewDPSGD(clip, sigma, rng); err != nil {
				return nil, err
			}
		}
		if _, err := fl.TrainCentralized(net, trainSet, def, epochs, 24, nn.RandSource(0xdb1, 8)); err != nil {
			return nil, err
		}
		acc, err := fl.EvaluateAccuracy(net, testSet, 24)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%g", sigma),
			fmt.Sprintf("%.2f", psnrPlain),
			fmt.Sprintf("%.2f", psnrAmp),
			fmt.Sprintf("%.1f", acc*100))
		cfg.logf("dp σ=%g plain=%.2f amp=%.2f acc=%.1f%%", sigma, psnrPlain, psnrAmp, acc*100)
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"gain64 ≈ gain1 at every σ: update clipping neutralizes head amplification (post-clip bias-gradient share is scale-invariant)",
		"compare with fig5/fig6: OASIS reaches comparable or lower PSNR with zero noise and zero accuracy cost (Table I)")
	if err := res.saveCSV(cfg, "dp.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}

// dpAttackPSNR measures the privacy leak as the mean over originals of the
// best reconstruction PSNR each original suffered. (A plain mean over all
// reconstructions would be meaningless under noise: noise turns every empty
// bin difference nonzero, flooding the output with garbage images an
// attacker trivially discards; best-per-original is what the victim cares
// about.)
func dpAttackPSNR(ds data.Dataset, rtf *attack.Imprint, victim *attack.Victim, clip, sigma float64, trials int, rng *rand.Rand) (float64, error) {
	var best []float64
	for tr := 0; tr < trials; tr++ {
		batch, err := data.RandomBatch(ds, rng, 8)
		if err != nil {
			return 0, err
		}
		gw, gb, _ := victim.Gradients(batch)
		if sigma > 0 {
			dp, err := defense.NewDPSGD(clip, sigma, rng)
			if err != nil {
				return 0, err
			}
			dp.ApplyGrads([]*tensor.Tensor{gw, gb})
		}
		ev := attack.Evaluate(rtf.Reconstruct(gw, gb), batch.Images)
		best = append(best, ev.PerOriginalBest...)
	}
	return metrics.Mean(best), nil
}
