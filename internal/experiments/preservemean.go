package experiments

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// PreserveMean ablates this implementation's one deliberate design choice on
// top of the paper (see README, "Running the paper experiments"): OASIS
// restores each transformed copy's mean pixel value. The paper's §IV-B
// mechanism — transforms must "impose minimal change" to the scalar quantity
// RTF's neurons measure — only binds geometric transforms that vacate pixels
// (shearing, minor rotation) if the photometric statistic is restored. The
// ablation runs RTF against SH and mR with restoration on and off:
//
//   - ON: transformed copies share their source's brightness bin, every bin
//     inverts to a blend, no verbatim recoveries;
//   - OFF: zero-fill transforms drop into darker bins, originals remain
//     alone in theirs, and RTF recovers them verbatim — the defense fails.
//
// Exact transforms (major rotation, flips) preserve the mean by construction
// and are unaffected; they are included as controls.
func PreserveMean(cfg Config) (*Result, error) {
	ds := data.NewSynthCIFAR100(cfg.Seed)
	c, h, w := ds.Shape()
	dims := attack.ImageDims{C: c, H: h, W: w}
	b, n, trials := 8, 400, 3
	if cfg.Quick {
		n, trials = 150, 1
	}
	rng := nn.RandSource(cfg.Seed^0x9e4e, 1)
	rtf, err := attack.NewRTF(dims, ds.NumClasses(), n, ds, rng, 256)
	if err != nil {
		return nil, err
	}

	t := metrics.NewTable("Ablation: mean restoration in OASIS transforms (RTF, B=8, synth-cifar100)",
		"policy", "preserve_mean", "mean_psnr_dB", "max_psnr_dB", "verbatim_recoveries")
	res := &Result{ID: "pm"}
	for _, polName := range []string{"SH", "mR", "MR"} {
		for _, preserve := range []bool{true, false} {
			def, err := policyDefense(polName)
			if err != nil {
				return nil, err
			}
			def.PreserveMean = preserve
			run, err := trialLoop{atk: rtf, ds: ds, batch: b, trials: trials, defend: oasisDefense(def)}.run(rng)
			if err != nil {
				return nil, err
			}
			mean := metrics.Mean(run.ev.PSNRs)
			t.AddRow(polName, fmt.Sprintf("%v", preserve),
				fmt.Sprintf("%.2f", mean),
				fmt.Sprintf("%.2f", run.ev.MaxPSNR()),
				fmt.Sprintf("%d", verbatim(run.ev)))
			cfg.logf("pm %s preserve=%v mean=%.2f verbatim=%d", polName, preserve, mean, verbatim(run.ev))
		}
	}
	res.Tables = append(res.Tables, t)
	res.Notes = append(res.Notes,
		"MR rows are controls: exact rotations preserve the mean regardless of the flag.")
	if err := res.saveCSV(cfg, "preserve_mean.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}
