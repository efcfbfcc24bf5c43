package defense

import (
	"math"
	rand "math/rand/v2"
	"testing"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

func grads(rng *rand.Rand, scale float64) []*tensor.Tensor {
	a := tensor.New(10, 20)
	a.FillRandn(rng, scale)
	b := tensor.New(10)
	b.FillRandn(rng, scale)
	return []*tensor.Tensor{a, b}
}

func totalNorm(gs []*tensor.Tensor) float64 {
	s := 0.0
	for _, g := range gs {
		n := g.L2Norm()
		s += n * n
	}
	return math.Sqrt(s)
}

func TestDPSGDClipsWithoutNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	d, err := NewDPSGD(1.0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs := grads(rng, 5) // norm >> clip
	d.ApplyGrads(gs)
	if n := totalNorm(gs); math.Abs(n-1.0) > 1e-9 {
		t.Errorf("clipped norm = %g, want 1", n)
	}
}

func TestDPSGDLeavesSmallGradientsUnclipped(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	d, err := NewDPSGD(100, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs := grads(rng, 0.1)
	before := totalNorm(gs)
	d.ApplyGrads(gs)
	if after := totalNorm(gs); math.Abs(after-before) > 1e-9 {
		t.Errorf("small gradients were rescaled: %g → %g", before, after)
	}
}

func TestDPSGDNoisePerturbsEveryTensor(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	d, err := NewDPSGD(1.0, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	gs := grads(rng, 0.001)
	orig := []*tensor.Tensor{gs[0].Clone(), gs[1].Clone()}
	d.ApplyGrads(gs)
	for i := range gs {
		if gs[i].EqualApprox(orig[i], 1e-6) {
			t.Errorf("tensor %d unchanged by σ=0.5 noise", i)
		}
	}
}

func TestDPSGDValidation(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	if _, err := NewDPSGD(0, 0.1, rng); err == nil {
		t.Error("clip=0 accepted")
	}
	if _, err := NewDPSGD(1, -1, rng); err == nil {
		t.Error("negative sigma accepted")
	}
	// Each factor is finite, but the noise scale σ·clip overflows to +Inf
	// and would write ±Inf into every uploaded coordinate.
	if _, err := NewDPSGD(1e200, 1e200, rng); err == nil {
		t.Error("overflowing noise scale σ·clip accepted")
	}
}

func TestPruningZeroesFraction(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	p, err := NewPruning(0.25)
	if err != nil {
		t.Fatal(err)
	}
	gs := grads(rng, 1)
	total := gs[0].Len() + gs[1].Len()
	p.ApplyGrads(gs)
	zeros := 0
	for _, g := range gs {
		for _, v := range g.Data() {
			if v == 0 {
				zeros++
			}
		}
	}
	want := int(float64(total) * 0.75)
	if math.Abs(float64(zeros-want)) > 2 {
		t.Errorf("pruned %d of %d, want ≈ %d", zeros, total, want)
	}
}

func TestPruningKeepsLargest(t *testing.T) {
	g := tensor.MustFromSlice([]float64{0.1, -5, 0.2, 4, -0.05}, 5)
	p, err := NewPruning(0.4)
	if err != nil {
		t.Fatal(err)
	}
	p.ApplyGrads([]*tensor.Tensor{g})
	d := g.Data()
	if d[1] != -5 || d[3] != 4 {
		t.Errorf("large entries pruned: %v", d)
	}
	if d[0] != 0 || d[2] != 0 || d[4] != 0 {
		t.Errorf("small entries kept: %v", d)
	}
}

func TestPruningKeepOneIsNoop(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	p, err := NewPruning(1)
	if err != nil {
		t.Fatal(err)
	}
	gs := grads(rng, 1)
	orig := gs[0].Clone()
	p.ApplyGrads(gs)
	if !gs[0].EqualApprox(orig, 0) {
		t.Error("keep=1 modified gradients")
	}
}

func TestPruningValidation(t *testing.T) {
	if _, err := NewPruning(0); err == nil {
		t.Error("keep=0 accepted")
	}
	if _, err := NewPruning(1.5); err == nil {
		t.Error("keep>1 accepted")
	}
}

func TestATSReplacesInsteadOfExpanding(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	a, err := NewATS(augment.MajorRotation{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := &data.Batch{}
	for i := 0; i < 4; i++ {
		im := imaging.NewImage(1, 6, 6)
		for j := range im.Pix {
			im.Pix[j] = rng.Float64()
		}
		b.Append(im, i)
	}
	out := a.ApplyBatch(b)
	if out.Size() != b.Size() {
		t.Fatalf("ATS changed batch size: %d → %d (it must replace, not expand)", b.Size(), out.Size())
	}
	for i := range out.Images {
		if out.Labels[i] != b.Labels[i] {
			t.Errorf("ATS changed label %d", i)
		}
		if imaging.MSE(out.Images[i], b.Images[i]) == 0 {
			t.Errorf("ATS left image %d untransformed", i)
		}
	}
}

func TestATSRequiresPolicy(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	if _, err := NewATS(nil, rng); err == nil {
		t.Error("nil policy accepted")
	}
}

func TestNames(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	d, _ := NewDPSGD(1, 0.5, rng)
	if d.Name() != "dpsgd(σ=0.5)" {
		t.Errorf("DPSGD name = %q", d.Name())
	}
	p, _ := NewPruning(0.1)
	if p.Name() != "prune(keep=0.1)" {
		t.Errorf("pruning name = %q", p.Name())
	}
	a, _ := NewATS(augment.Shearing{}, rng)
	if a.Name() != "ats(SH)" {
		t.Errorf("ATS name = %q", a.Name())
	}
}
