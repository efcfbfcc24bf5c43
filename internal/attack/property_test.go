package attack

import (
	"math"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// quickCfg pins the generator so the properties are deterministic across
// runs (testing/quick defaults to a time-based seed).
func quickCfg(maxCount int) *quick.Config {
	return &quick.Config{MaxCount: maxCount, Rand: mrand.New(mrand.NewSource(424242))}
}

// TestRTFSingleImageExactnessProperty is the Eq. 6 invariant at its
// sharpest: for any single-image batch, inverting the summed gradients
// recovers the image exactly (up to float64), regardless of the image or
// the attack seed. This is the degenerate case the paper's attack principle
// builds on — one sample per neuron ⇒ verbatim reconstruction.
func TestRTFSingleImageExactnessProperty(t *testing.T) {
	ds := data.NewSynthCustom("prop-rtf", 8, 1, 8, 8, 256, 99)
	dims := ImageDims{C: 1, H: 8, W: 8}
	err := quick.Check(func(seed uint64) bool {
		rng := nn.RandSource(seed, 77)
		rtf, err := NewRTF(dims, ds.NumClasses(), 64, ds, rng, 64)
		if err != nil {
			return false
		}
		batch, err := data.RandomBatch(ds, rng, 1)
		if err != nil {
			return false
		}
		ev, recons, err := rtf.Run(batch, batch.Images, rng)
		if err != nil {
			return false
		}
		if len(recons) == 0 {
			// The image's brightness fell below every bin threshold: the
			// attacker misses entirely — allowed, just not inexact.
			return true
		}
		return ev.MaxPSNR() >= 149
	}, quickCfg(10))
	if err != nil {
		t.Error(err)
	}
}

// TestCAHSoloActivationExactnessProperty: whenever a trap neuron is
// activated by exactly one sample, Eq. 6 on that neuron reproduces the
// sample verbatim. Verified constructively: single-image batches make every
// activated neuron a solo neuron.
func TestCAHSoloActivationExactnessProperty(t *testing.T) {
	ds := data.NewSynthCustom("prop-cah", 8, 1, 8, 8, 256, 98)
	dims := ImageDims{C: 1, H: 8, W: 8}
	err := quick.Check(func(seed uint64) bool {
		rng := nn.RandSource(seed, 78)
		cah, err := NewCAH(dims, ds.NumClasses(), 64, ds, rng, 64, 4)
		if err != nil {
			return false
		}
		batch, err := data.RandomBatch(ds, rng, 1)
		if err != nil {
			return false
		}
		ev, recons, err := cah.Run(batch, batch.Images, rng)
		if err != nil {
			return false
		}
		if len(recons) == 0 {
			// The lone image may trip no trap at all; that is a miss for
			// the attacker, not a property violation.
			return true
		}
		return ev.MaxPSNR() >= 149
	}, quickCfg(10))
	if err != nil {
		t.Error(err)
	}
}

// TestGradientSumProperty checks the linearity the whole attack class
// exploits (§III-A): gradients of a batch are the sum of per-sample
// gradients (cross-entropy means are rescaled to sums for comparison).
func TestGradientSumProperty(t *testing.T) {
	ds := data.NewSynthCustom("prop-sum", 4, 1, 6, 6, 64, 97)
	dims := ImageDims{C: 1, H: 6, W: 6}
	err := quick.Check(func(seed uint64) bool {
		rng := nn.RandSource(seed, 79)
		rtf, err := NewRTF(dims, ds.NumClasses(), 16, ds, rng, 32)
		if err != nil {
			return false
		}
		victim, err := rtf.BuildVictim(rng)
		if err != nil {
			return false
		}
		batch, err := data.RandomBatch(ds, rng, 3)
		if err != nil {
			return false
		}
		// Batch gradients are the mean over samples; scale to a sum.
		gwB, gbB, _ := victim.Gradients(batch)
		gwB.ScaleInPlace(float64(batch.Size()))
		gbB.ScaleInPlace(float64(batch.Size()))
		// Sum of single-sample gradients.
		var gwS, gbS = gwB.Clone(), gbB.Clone()
		gwS.Zero()
		gbS.Zero()
		for i := range batch.Images {
			single := &data.Batch{}
			single.Append(batch.Images[i], batch.Labels[i])
			gw, gb, _ := victim.Gradients(single)
			gwS.AddInPlace(gw)
			gbS.AddInPlace(gb)
		}
		return gwB.EqualApprox(gwS, 1e-9) && gbB.EqualApprox(gbS, 1e-9)
	}, quickCfg(8))
	if err != nil {
		t.Error(err)
	}
}

// fullDifferenceBins is RTF's and LOKI's bin inversion as it was before
// empty bins were skipped: every bin's row difference is formed, and
// ratioReconstruct alone rejects the empty ones on their bias difference.
func fullDifferenceBins(out []*imaging.Image, gw *tensor.Tensor, gb []float64, base, bins int, dims ImageDims) []*imaging.Image {
	diff := make([]float64, dims.Dim())
	for i := base; i < base+bins-1; i++ {
		rowI, rowN := gw.RowView(i), gw.RowView(i+1)
		for k := range diff {
			diff[k] = rowI[k] - rowN[k]
		}
		if im, ok := ratioReconstruct(diff, gb[i]-gb[i+1], dims); ok {
			out = append(out, im)
		}
	}
	if im, ok := ratioReconstruct(gw.RowView(base+bins-1), gb[base+bins-1], dims); ok {
		out = append(out, im)
	}
	return out
}

// TestBinReconstructMatchesFullDifference: RTF and LOKI skip a bin whose
// bias difference is below gradEps before forming its row difference. On
// random gradients whose adjacent biases are mostly equal, with some
// differences just below and just above gradEps, both must return exactly
// the images of the full-difference loop, bit for bit and in order.
func TestBinReconstructMatchesFullDifference(t *testing.T) {
	dims := ImageDims{C: 1, H: 3, W: 4}
	check := func(seed uint64) bool {
		rng := nn.RandSource(seed, 17)
		groups, bins := 1+rng.IntN(3), 2+rng.IntN(12)
		n := groups * bins
		gw := tensor.New(n, dims.Dim())
		gw.FillRandn(rng, 1)
		gb := tensor.New(n)
		gbd := gb.Data()
		for i := range gbd {
			switch {
			case i == 0 || rng.IntN(4) == 0:
				gbd[i] = rng.NormFloat64()
			case rng.IntN(8) == 0:
				gbd[i] = gbd[i-1] + gradEps*(0.5+rng.Float64()) // straddles gradEps
			default:
				gbd[i] = gbd[i-1]
			}
		}
		rtf := &RTF{Neurons: n, Dims: dims}
		loki := &LOKI{Neurons: n, Groups: groups, Bins: bins, Dims: dims}
		var wantLOKI []*imaging.Image
		for g := 0; g < groups; g++ {
			wantLOKI = fullDifferenceBins(wantLOKI, gw, gbd, g*bins, bins, dims)
		}
		for _, c := range []struct {
			name      string
			got, want []*imaging.Image
		}{
			{"rtf", rtf.Reconstruct(gw, gb), fullDifferenceBins(nil, gw, gbd, 0, n, dims)},
			{"loki", loki.Reconstruct(gw, gb), DedupeReconstructions(wantLOKI, 1e-8)},
		} {
			if len(c.got) != len(c.want) {
				t.Errorf("seed %d %s: %d images, full difference %d", seed, c.name, len(c.got), len(c.want))
				return false
			}
			for i := range c.want {
				for k, v := range c.want[i].Pix {
					if math.Float64bits(c.got[i].Pix[k]) != math.Float64bits(v) {
						t.Errorf("seed %d %s: image %d pixel %d = %g, full difference %g", seed, c.name, i, k, c.got[i].Pix[k], v)
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, quickCfg(200)); err != nil {
		t.Fatal(err)
	}
}
