package attack

import (
	"math"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

// TestQBIActivationRate checks the analytic bias placement does its job:
// over held-out samples, neurons fire at roughly the 1/B target rate.
func TestQBIActivationRate(t *testing.T) {
	ds := data.NewSynthCustom("qbi-rate", 4, 1, 8, 8, 512, 21)
	rng := nn.RandSource(21, 1)
	const batch = 8
	qbi, err := NewQBI(ImageDims{C: 1, H: 8, W: 8}, 4, 128, ds, rng, 256, batch)
	if err != nil {
		t.Fatal(err)
	}
	w, b := qbi.Layer()
	fired, total := 0, 0
	for idx := 0; idx < 256; idx++ {
		im, _ := ds.Sample(idx)
		for i := 0; i < w.Dim(0); i++ {
			row := w.RowView(i)
			s := b.Data()[i]
			for j, v := range row {
				s += v * im.Pix[j]
			}
			if s > 0 {
				fired++
			}
			total++
		}
	}
	rate := float64(fired) / float64(total)
	target := 1.0 / batch
	// The Gaussian moment approximation is not exact; accept a generous
	// band around the target. What matters is the order of magnitude: a
	// miscalibrated bias fires for ~all or ~no samples.
	if rate < target/4 || rate > target*4 {
		t.Errorf("activation rate %.3f outside [%.3f, %.3f] around target %.3f",
			rate, target/4, target*4, target)
	}
}

// TestQBIValidation mirrors the CAH construction guards.
func TestQBIValidation(t *testing.T) {
	ds := data.NewSynthCustom("qbi-bad", 4, 1, 8, 8, 64, 22)
	rng := nn.RandSource(22, 1)
	dims := ImageDims{C: 1, H: 8, W: 8}
	if _, err := NewQBI(dims, 4, 0, ds, rng, 64, 8); err == nil {
		t.Error("0 neurons accepted")
	}
	if _, err := NewQBI(dims, 4, 10, ds, rng, 64, 1); err == nil {
		t.Error("batch 1 accepted")
	}
}

// TestProbitUpper pins the inverse-CDF approximation against known values.
func TestProbitUpper(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{1.0 / 8, 1.1503},  // Φ⁻¹(0.875)
		{1.0 / 64, 2.1539}, // Φ⁻¹(1−1/64)
		{0.01, 2.3263},
	}
	for _, c := range cases {
		if got := probitUpper(c.p); math.Abs(got-c.want) > 1e-3 {
			t.Errorf("probitUpper(%g) = %.4f, want %.4f", c.p, got, c.want)
		}
	}
}

// TestLOKIGroupStructure checks the neuron budget folds into groups of
// ascending within-group thresholds over disjoint kernel supports.
func TestLOKIGroupStructure(t *testing.T) {
	ds := data.NewSynthCustom("loki-groups", 4, 1, 8, 8, 256, 23)
	rng := nn.RandSource(23, 1)
	loki, err := NewLOKI(ImageDims{C: 1, H: 8, W: 8}, 4, 64, ds, rng, 128, DefaultLOKIScale)
	if err != nil {
		t.Fatal(err)
	}
	bins, neurons := loki.group, loki.neurons()
	groups := neurons / bins
	if groups*bins != neurons {
		t.Fatalf("groups %d × bins %d != neurons %d", groups, bins, neurons)
	}
	if groups < 2 {
		t.Fatalf("64 neurons should split into several kernels, got %d", groups)
	}
	w, b := loki.Layer()
	for g := 0; g < groups; g++ {
		base := g * bins
		// Thresholds (−bias) strictly ascend within the group.
		for i := 1; i < bins; i++ {
			if -b.Data()[base+i] <= -b.Data()[base+i-1] {
				t.Fatalf("group %d thresholds not ascending at bin %d", g, i)
			}
		}
		// All rows of one group share the same kernel support.
		first := w.RowView(base)
		for i := 1; i < bins; i++ {
			row := w.RowView(base + i)
			for j := range row {
				if (row[j] == 0) != (first[j] == 0) {
					t.Fatalf("group %d rows disagree on kernel support at pixel %d", g, j)
				}
			}
		}
	}
}

// TestLOKISeparatesBrightnessCollisions is the scaling story: two samples
// with (near-)identical mean brightness collide in every RTF bin, but LOKI's
// kernel diversity still separates them.
func TestLOKISeparatesBrightnessCollisions(t *testing.T) {
	ds := data.NewSynthCustom("loki-coll", 4, 1, 8, 8, 512, 24)
	rng := nn.RandSource(24, 1)
	dims := ImageDims{C: 1, H: 8, W: 8}

	// Find two distinct samples whose global means nearly coincide.
	imA, _ := ds.Sample(0)
	bestJ, bestGap := -1, math.Inf(1)
	for j := 1; j < ds.Len(); j++ {
		im, _ := ds.Sample(j)
		if gap := math.Abs(im.Mean() - imA.Mean()); gap < bestGap {
			bestJ, bestGap = j, gap
		}
	}
	imB, _ := ds.Sample(bestJ)
	batch := &data.Batch{}
	batch.Append(imA, 0)
	batch.Append(imB, 1)

	loki, err := NewLOKI(dims, ds.NumClasses(), 96, ds, rng, 256, DefaultLOKIScale)
	if err != nil {
		t.Fatal(err)
	}
	ev, _, err := loki.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatal(err)
	}
	sep := 0
	for _, p := range ev.PerOriginalBest {
		if p > 40 {
			sep++
		}
	}
	if sep < 2 {
		t.Errorf("LOKI separated %d/2 brightness-colliding samples (per-original best %v)",
			sep, ev.PerOriginalBest)
	}
}

// TestLOKIValidation covers the constructor guards.
func TestLOKIValidation(t *testing.T) {
	ds := data.NewSynthCustom("loki-bad", 4, 1, 8, 8, 64, 25)
	rng := nn.RandSource(25, 1)
	dims := ImageDims{C: 1, H: 8, W: 8}
	if _, err := NewLOKI(dims, 4, 1, ds, rng, 64, DefaultLOKIScale); err == nil {
		t.Error("single neuron accepted")
	}
	if _, err := NewLOKI(dims, 4, 32, ds, rng, 64, 0); err == nil {
		t.Error("zero scale accepted")
	}
}
