package experiments

import (
	"fmt"
	"path/filepath"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// Visual regenerates Figures 7–12: side-by-side montages of raw input images
// (left column) and their reconstructions under each OASIS transformation
// (right column). Figures 7–11 use the RTF attack with MR, mR, SH, HFlip and
// VFlip; Figure 12 uses the CAH attack with MR+SH.
func Visual(cfg Config) (*Result, error) {
	ds := data.NewSynthImageNet(cfg.Seed)
	c, h, w := ds.Shape()
	dims := attack.ImageDims{C: c, H: h, W: w}
	numImages := 4
	neurons := 400
	if cfg.Quick {
		numImages, neurons = 2, 150
	}

	figures := []struct {
		fig    string
		policy string
		useCAH bool
	}{
		{"fig7", "MR", false},
		{"fig8", "mR", false},
		{"fig9", "SH", false},
		{"fig10", "HFlip", false},
		{"fig11", "VFlip", false},
		{"fig12", "MR+SH", true},
	}

	res := &Result{ID: "visual"}
	t := metrics.NewTable("Figures 7-12: visual reconstructions", "figure", "attack", "policy", "mean_psnr_dB", "artifact")
	for _, f := range figures {
		rng := nn.RandSource(cfg.Seed^hashLabel(f.fig), 5)
		atk, err := buildAttack(evalSet{ds: ds, dims: dims}, neurons, f.useCAH, 128, rng)
		if err != nil {
			return nil, err
		}
		def, err := policyDefense(f.policy)
		if err != nil {
			return nil, err
		}
		run, err := trialLoop{atk: atk, ds: ds, batch: numImages, trials: 1, defend: oasisDefense(def)}.run(rng)
		if err != nil {
			return nil, err
		}
		artifact := ""
		if cfg.OutDir != "" {
			tiles := make([]*imaging.Image, 0, 2*numImages)
			for _, orig := range run.originals {
				tiles = append(tiles, orig.Clone().Clamp(), bestReconFor(orig, run.recons))
			}
			m, err := imaging.Montage(tiles, 2)
			if err != nil {
				return nil, err
			}
			artifact = filepath.Join(cfg.OutDir, fmt.Sprintf("%s_%s.png", f.fig, sanitize(f.policy)))
			if err := m.WritePNG(artifact); err != nil {
				return nil, err
			}
			res.Artifacts = append(res.Artifacts, artifact)
		}
		name := "RTF"
		if f.useCAH {
			name = "CAH"
		}
		t.AddRowf(f.fig, name, f.policy, run.ev.MeanPSNR(), artifact)
		cfg.logf("visual %s (%s/%s) mean PSNR %.2f", f.fig, name, f.policy, run.ev.MeanPSNR())
	}
	res.Tables = append(res.Tables, t)
	if err := res.saveCSV(cfg, "visual.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}

func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '+', '/', ' ':
			out = append(out, '_')
		default:
			out = append(out, c)
		}
	}
	return string(out)
}
