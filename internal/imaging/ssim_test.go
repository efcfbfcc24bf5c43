package imaging

import (
	"math"
	rand "math/rand/v2"
	"testing"
)

func ssimTestImage(rng *rand.Rand, c, h, w int) *Image {
	im := NewImage(c, h, w)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

func TestSSIMIdentity(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	im := ssimTestImage(rng, 1, 8, 8)
	if got := SSIM(im, im.Clone()); math.Abs(got-1) > 1e-12 {
		t.Errorf("SSIM(x, x) = %g, want 1", got)
	}
}

func TestSSIMRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 50; i++ {
		a := ssimTestImage(rng, 1, 8, 8)
		b := ssimTestImage(rng, 1, 8, 8)
		s := SSIM(a, b)
		if s < -1-1e-12 || s > 1+1e-12 || math.IsNaN(s) {
			t.Fatalf("SSIM outside [-1, 1]: %g", s)
		}
	}
}

func TestSSIMOrdersDegradation(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	ref := ssimTestImage(rng, 1, 8, 8)
	slight := ref.Clone()
	heavy := ref.Clone()
	for i := range slight.Pix {
		slight.Pix[i] = clamp01(slight.Pix[i] + 0.02*rng.NormFloat64())
		heavy.Pix[i] = clamp01(heavy.Pix[i] + 0.5*rng.NormFloat64())
	}
	s1, s2 := SSIM(slight, ref), SSIM(heavy, ref)
	if s1 <= s2 {
		t.Errorf("slight noise SSIM %.3f not above heavy noise %.3f", s1, s2)
	}
	if s1 < 0.8 {
		t.Errorf("slight noise SSIM %.3f unexpectedly low", s1)
	}
}

// TestSSIMPenalizesBlending ties the metric to the defense story: the mean
// of two images (what a multiply-activated neuron reconstructs) scores
// clearly below either original.
func TestSSIMPenalizesBlending(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	a := ssimTestImage(rng, 1, 8, 8)
	b := ssimTestImage(rng, 1, 8, 8)
	blend := Blend(a, b)
	if s := SSIM(blend, a); s > 0.9 {
		t.Errorf("blended reconstruction SSIM %.3f vs original; expected a clear penalty", s)
	}
}

func TestSSIMDimensionMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("dimension mismatch did not panic")
		}
	}()
	SSIM(NewImage(1, 2, 2), NewImage(1, 3, 3))
}
