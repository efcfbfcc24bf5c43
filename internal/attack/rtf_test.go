package attack

import (
	"testing"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

func synthBatch(t *testing.T, ds data.Dataset, seed uint64, size int) *data.Batch {
	t.Helper()
	rng := nn.RandSource(seed, 1)
	b, err := data.RandomBatch(ds, rng, size)
	if err != nil {
		t.Fatalf("RandomBatch: %v", err)
	}
	return b
}

func TestRTFPerfectReconstructionWithoutDefense(t *testing.T) {
	ds := data.NewSynthCIFAR100(7)
	c, h, w := ds.Shape()
	dims := ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(11, 2)
	rtf, err := NewRTF(dims, ds.NumClasses(), 500, ds, rng, 256)
	if err != nil {
		t.Fatalf("NewRTF: %v", err)
	}
	batch := synthBatch(t, ds, 3, 8)
	ev, recons, err := rtf.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(recons) == 0 {
		t.Fatal("RTF reconstructed nothing on an undefended batch")
	}
	// Paper: undefended RTF at B=8 yields near-perfect reconstructions
	// (>100 dB). Every sample should be recovered essentially verbatim.
	if got := ev.MeanPSNR(); got < 100 {
		t.Errorf("undefended RTF mean PSNR = %.2f dB, want > 100", got)
	}
	recovered := 0
	for _, p := range ev.PerOriginalBest {
		if p > 100 {
			recovered++
		}
	}
	if recovered < 7 { // allow one bin collision among 8 samples
		t.Errorf("undefended RTF perfectly recovered %d/8 originals, want ≥ 7", recovered)
	}
}

func TestRTFDefeatedByMajorRotation(t *testing.T) {
	ds := data.NewSynthCIFAR100(7)
	c, h, w := ds.Shape()
	dims := ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(13, 2)
	rtf, err := NewRTF(dims, ds.NumClasses(), 500, ds, rng, 256)
	if err != nil {
		t.Fatalf("NewRTF: %v", err)
	}
	batch := synthBatch(t, ds, 5, 8)
	defended := core.New(augment.MajorRotation{}).ApplyBatch(batch)
	ev, _, err := rtf.Run(defended, batch.Images, rng)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// Paper Fig. 5: major rotation drives RTF reconstructions to ~15–20 dB.
	if got := ev.MeanPSNR(); got > 40 {
		t.Errorf("MR-defended RTF mean PSNR = %.2f dB, want < 40", got)
	}
	if got := ev.MaxPSNR(); got > 100 {
		t.Errorf("MR-defended RTF still produced a perfect reconstruction (max %.2f dB)", got)
	}
}
