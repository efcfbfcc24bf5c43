package experiments

import (
	"fmt"
	"path/filepath"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
)

// Fig2 reproduces the PSNR illustration: the same image reconstructed by the
// RTF attack without OASIS (essentially a verbatim copy, PSNR at the cap)
// and with OASIS major rotation (an unrecognizable overlap, PSNR an order of
// magnitude lower in dB).
func Fig2(cfg Config) (*Result, error) {
	ds := data.NewSynthImageNet(cfg.Seed)
	c, h, w := ds.Shape()
	dims := attack.ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(cfg.Seed^0xf16_2, 1)

	rtf, err := attack.NewRTF(dims, ds.NumClasses(), 300, ds, rng, 128)
	if err != nil {
		return nil, err
	}
	batch, err := data.RandomBatch(ds, rng, 4)
	if err != nil {
		return nil, err
	}
	target := batch.Images[0]

	// Without OASIS.
	evRaw, reconsRaw, err := rtf.Run(batch, batch.Images, rng)
	if err != nil {
		return nil, err
	}
	// With OASIS (major rotation).
	defended := core.New(augment.MajorRotation{}).ApplyBatch(batch)
	_, reconsDef, err := rtf.Run(defended, batch.Images, rng)
	if err != nil {
		return nil, err
	}
	bestRaw := bestReconFor(target, reconsRaw)
	bestDef := bestReconFor(target, reconsDef)

	t := metrics.NewTable("Figure 2: PSNR illustration", "variant", "psnr_dB")
	t.AddRowf("reconstruction w/o OASIS", imaging.PSNR(bestRaw, target))
	t.AddRowf("reconstruction with OASIS", imaging.PSNR(bestDef, target))
	res := &Result{ID: "fig2", Tables: []*metrics.Table{t}}
	res.Notes = append(res.Notes,
		fmt.Sprintf("undefended mean PSNR over batch: %.2f dB", evRaw.MeanPSNR()))

	if cfg.OutDir != "" {
		m, err := imaging.Montage([]*imaging.Image{target.Clone().Clamp(), bestRaw, bestDef}, 3)
		if err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.OutDir, "fig2_psnr_illustration.png")
		if err := m.WritePNG(path); err != nil {
			return nil, err
		}
		res.Artifacts = append(res.Artifacts, path)
	}
	if err := res.saveCSV(cfg, "fig2.csv", t); err != nil {
		return nil, err
	}
	return res, nil
}

// bestReconFor returns the reconstruction with the highest PSNR against ref,
// or a black image if none exist.
func bestReconFor(ref *imaging.Image, recons []*imaging.Image) *imaging.Image {
	best := imaging.NewImage(ref.C, ref.H, ref.W)
	bestPSNR := -1.0
	for _, r := range recons {
		if !r.SameDims(ref) {
			continue
		}
		if p := imaging.PSNR(r, ref); p > bestPSNR {
			best, bestPSNR = r, p
		}
	}
	return best
}
