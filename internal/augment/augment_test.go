package augment

import (
	rand "math/rand/v2"
	"testing"

	"github.com/oasisfl/oasis/internal/imaging"
)

func probeImage(seed uint64) *imaging.Image {
	rng := rand.New(rand.NewPCG(seed, 1))
	im := imaging.NewImage(3, 8, 8)
	for i := range im.Pix {
		im.Pix[i] = rng.Float64()
	}
	return im
}

func TestExpansionCounts(t *testing.T) {
	im := probeImage(1)
	cases := []struct {
		p    Policy
		want int
	}{
		{MajorRotation{}, 3},
		{MinorRotation{}, 3},
		{Shearing{}, 3},
		{HFlip{}, 1},
		{VFlip{}, 1},
		{NewCompose(MajorRotation{}, Shearing{}), 6},
		{NewCompose(HFlip{}, VFlip{}, MajorRotation{}), 5},
	}
	for _, c := range cases {
		if got := len(c.p.Expand(im)); got != c.want {
			t.Errorf("%s: %d transforms, want %d", c.p.Name(), got, c.want)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	if (MajorRotation{}).Name() != "MR" {
		t.Error("MR name")
	}
	if (MinorRotation{}).Name() != "mR" {
		t.Error("mR name")
	}
	if (Shearing{}).Name() != "SH" {
		t.Error("SH name")
	}
	if NewCompose(MajorRotation{}, Shearing{}).Name() != "MR+SH" {
		t.Error("compose name")
	}
}

func TestByName(t *testing.T) {
	for _, label := range []string{"MR", "mR", "SH", "HFlip", "VFlip", "MR+SH"} {
		p, err := ByName(label)
		if err != nil {
			t.Errorf("ByName(%q): %v", label, err)
			continue
		}
		if p == nil || p.Name() != label {
			t.Errorf("ByName(%q) = %v", label, p)
		}
	}
	if p, err := ByName("WO"); err != nil || p != nil {
		t.Errorf("ByName(WO) = (%v, %v), want (nil, nil)", p, err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Error("ByName(bogus) did not error")
	}
}

// TestNeedsSquare: NeedsSquare is true exactly for the policies whose
// expansion of a non-square image panics.
func TestNeedsSquare(t *testing.T) {
	nested := NewCompose(Shearing{}, NewCompose(HFlip{}, MajorRotation{}))
	for _, p := range []Policy{MajorRotation{}, MinorRotation{}, Shearing{}, HFlip{}, VFlip{},
		NewCompose(MajorRotation{}, Shearing{}), NewCompose(HFlip{}, VFlip{}), nested} {
		panicked := func() (panicked bool) {
			defer func() { panicked = recover() != nil }()
			p.Expand(imaging.NewImage(1, 4, 6))
			return false
		}()
		if got := NeedsSquare(p); got != panicked {
			t.Errorf("NeedsSquare(%s) = %v, but expanding a 4×6 image panicked: %v", p.Name(), got, panicked)
		}
	}
}

func TestMajorRotationProducesDistinctOrientations(t *testing.T) {
	im := probeImage(2)
	out := MajorRotation{}.Expand(im)
	// 90° then 270° must invert each other back to the original.
	r90, r270 := out[0], out[2]
	back := imaging.Rotate90(r270)
	for i := range im.Pix {
		if im.Pix[i] != back.Pix[i] {
			t.Fatal("expansion order is not (90°, 180°, 270°)")
		}
	}
	if imaging.MSE(r90, im) == 0 {
		t.Error("90° rotation equals original on a random image")
	}
}

func TestMinorRotationCustomAngles(t *testing.T) {
	im := probeImage(3)
	p := MinorRotation{Angles: []float64{10, 20}}
	if got := len(p.Expand(im)); got != 2 {
		t.Errorf("custom angles: %d transforms, want 2", got)
	}
}

func TestShearingCustomFactors(t *testing.T) {
	im := probeImage(4)
	p := Shearing{Factors: []float64{0.3}}
	if got := len(p.Expand(im)); got != 1 {
		t.Errorf("custom factors: %d transforms, want 1", got)
	}
}

func TestExpandDoesNotMutateInput(t *testing.T) {
	im := probeImage(5)
	orig := im.Clone()
	for _, p := range []Policy{MajorRotation{}, MinorRotation{}, Shearing{}, HFlip{}, VFlip{}} {
		p.Expand(im)
	}
	for i := range im.Pix {
		if im.Pix[i] != orig.Pix[i] {
			t.Fatal("a policy mutated its input image")
		}
	}
}
