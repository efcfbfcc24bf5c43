package attack

import (
	"testing"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

func TestCAHReconstructsWithoutDefense(t *testing.T) {
	ds := data.NewSynthCIFAR100(9)
	c, h, w := ds.Shape()
	dims := ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(17, 2)
	cah, err := NewCAH(dims, ds.NumClasses(), 300, ds, rng, 256, 8)
	if err != nil {
		t.Fatalf("NewCAH: %v", err)
	}
	batch := synthBatch(t, ds, 21, 8)
	ev, recons, err := cah.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recons) == 0 {
		t.Fatal("CAH reconstructed nothing on an undefended batch")
	}
	// With 300 trap neurons at activation probability 1/8, most of the 8
	// samples should be the sole activator of at least one neuron and be
	// recovered verbatim.
	recovered := 0
	for _, p := range ev.PerOriginalBest {
		if p > 100 {
			recovered++
		}
	}
	if recovered < 5 {
		t.Errorf("undefended CAH perfectly recovered %d/8 originals, want ≥ 5", recovered)
	}
}

func TestCAHDegradedByMajorRotationPlusShear(t *testing.T) {
	ds := data.NewSynthCIFAR100(9)
	c, h, w := ds.Shape()
	dims := ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(19, 2)
	cah, err := NewCAH(dims, ds.NumClasses(), 300, ds, rng, 256, 8)
	if err != nil {
		t.Fatalf("NewCAH: %v", err)
	}
	batch := synthBatch(t, ds, 23, 8)

	mrsh := core.New(augment.NewCompose(augment.MajorRotation{}, augment.Shearing{}))
	defended := mrsh.ApplyBatch(batch)
	evDef, _, err := cah.Run(defended, batch.Images, rng)
	if err != nil {
		t.Fatalf("Run defended: %v", err)
	}
	evRaw, _, err := cah.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatalf("Run raw: %v", err)
	}
	if evDef.MeanPSNR() >= evRaw.MeanPSNR() {
		t.Errorf("MR+SH did not reduce CAH mean PSNR: defended %.2f vs raw %.2f",
			evDef.MeanPSNR(), evRaw.MeanPSNR())
	}
	// Paper Fig. 6: MR+SH drags the average PSNR of CAH reconstructions
	// below ~25 dB (individual outliers remain, visible in the paper's
	// own box plots).
	if got := evDef.MeanPSNR(); got > 30 {
		t.Errorf("MR+SH-defended CAH mean PSNR = %.2f dB, want < 30", got)
	}
	perfect := func(ev Evaluation) int {
		n := 0
		for _, p := range ev.PerOriginalBest {
			if p > 100 {
				n++
			}
		}
		return n
	}
	if pd, pr := perfect(evDef), perfect(evRaw); pd >= pr {
		t.Errorf("MR+SH did not reduce verbatim recoveries: defended %d vs raw %d", pd, pr)
	}
}

func TestLinearInversionShape(t *testing.T) {
	ds := data.NewSynthCIFAR100(31)
	c, h, w := ds.Shape()
	dims := ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(37, 2)
	attackObj := NewLinearInversion(dims, ds.NumClasses())

	batch, err := data.UniqueLabelBatch(ds, rng, 8)
	if err != nil {
		t.Fatalf("UniqueLabelBatch: %v", err)
	}
	evRaw, recons, err := attackObj.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatalf("Run raw: %v", err)
	}
	if len(recons) != 8 {
		t.Fatalf("linear attack produced %d reconstructions, want 8", len(recons))
	}
	defended := core.New(augment.MajorRotation{}).ApplyBatch(batch)
	evDef, _, err := attackObj.Run(defended, batch.Images, rng)
	if err != nil {
		t.Fatalf("Run defended: %v", err)
	}
	if evDef.MeanPSNR() >= evRaw.MeanPSNR() {
		t.Errorf("MR did not reduce linear-inversion PSNR: defended %.2f vs raw %.2f",
			evDef.MeanPSNR(), evRaw.MeanPSNR())
	}
	// §IV-D: in the single-layer model the transformed copies share the
	// class neuron by construction, so no image should be recovered
	// verbatim under the defense.
	if evDef.MaxPSNR() > 100 {
		t.Errorf("linear inversion under MR still found a perfect reconstruction (%.2f dB)", evDef.MaxPSNR())
	}
}
