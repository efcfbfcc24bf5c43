package data

import (
	"math"
	mrand "math/rand"
	rand "math/rand/v2"
	"sync"
	"testing"
	"testing/quick"

	"github.com/oasisfl/oasis/internal/imaging"
)

func TestSynthDeterminism(t *testing.T) {
	ds := NewSynthCIFAR100(42)
	a, la := ds.Sample(17)
	b, lb := ds.Sample(17)
	if la != lb {
		t.Fatalf("labels differ: %d vs %d", la, lb)
	}
	if imaging.MSE(a, b) != 0 {
		t.Fatal("Sample(17) is not deterministic")
	}
	// Different seed ⇒ different images.
	other := NewSynthCIFAR100(43)
	c, _ := other.Sample(17)
	if imaging.MSE(a, c) == 0 {
		t.Fatal("different dataset seeds produced identical images")
	}
}

func TestSynthShapesAndRanges(t *testing.T) {
	cases := []Dataset{
		NewSynthImageNet(1),
		NewSynthCIFAR100(1),
		NewSynthCustom("x", 5, 1, 16, 16, 100, 1),
	}
	for _, ds := range cases {
		c, h, w := ds.Shape()
		im, label := ds.Sample(3)
		if im.C != c || im.H != h || im.W != w {
			t.Errorf("%s: image dims %dx%dx%d != Shape %dx%dx%d", ds.Name(), im.C, im.H, im.W, c, h, w)
		}
		if label < 0 || label >= ds.NumClasses() {
			t.Errorf("%s: label %d out of range", ds.Name(), label)
		}
		for _, v := range im.Pix {
			if v < 0 || v > 1 {
				t.Errorf("%s: pixel %g outside [0,1]", ds.Name(), v)
				break
			}
		}
	}
}

func TestSynthLabelCoverage(t *testing.T) {
	ds := NewSynthCustom("cov", 7, 1, 8, 8, 70, 3)
	counts := make([]int, 7)
	for i := 0; i < ds.Len(); i++ {
		_, y := ds.Sample(i)
		counts[y]++
	}
	for y, c := range counts {
		if c != 10 {
			t.Errorf("class %d has %d samples, want 10", y, c)
		}
	}
}

// TestSynthBrightnessSpread checks the property RTF depends on: distinct
// samples have distinct mean brightness with high probability.
func TestSynthBrightnessSpread(t *testing.T) {
	ds := NewSynthCIFAR100(5)
	rng := rand.New(rand.NewPCG(1, 1))
	seen := map[int64]bool{}
	for _, idx := range rng.Perm(ds.Len())[:64] {
		im, _ := ds.Sample(idx)
		bucket := int64(im.Mean() * 1e4)
		if seen[bucket] {
			t.Fatalf("two of 64 samples share brightness bucket %d — spread too tight", bucket)
		}
		seen[bucket] = true
	}
}

func TestBatchFlattenAnd4D(t *testing.T) {
	ds := NewSynthCustom("b", 4, 3, 6, 6, 64, 9)
	rng := rand.New(rand.NewPCG(2, 2))
	b, err := RandomBatch(ds, rng, 5)
	if err != nil {
		t.Fatal(err)
	}
	flat := b.Flatten()
	t4 := b.Tensor4D()
	if flat.Dim(0) != 5 || flat.Dim(1) != 3*6*6 {
		t.Errorf("Flatten shape %v", flat.Shape())
	}
	if t4.Dim(0) != 5 || t4.Dim(1) != 3 || t4.Dim(2) != 6 {
		t.Errorf("Tensor4D shape %v", t4.Shape())
	}
	// Same data, different layout.
	for i := 0; i < flat.Len(); i++ {
		if flat.Data()[i] != t4.Data()[i] {
			t.Fatal("Flatten and Tensor4D disagree")
		}
	}
}

func TestTakeBatchErrors(t *testing.T) {
	ds := NewSynthCustom("e", 2, 1, 4, 4, 10, 9)
	if _, err := TakeBatch(ds, []int{0, 10}); err == nil {
		t.Error("out-of-range index accepted")
	}
	if _, err := TakeBatch(ds, []int{-1}); err == nil {
		t.Error("negative index accepted")
	}
}

func TestRandomBatchSizeValidation(t *testing.T) {
	ds := NewSynthCustom("r", 2, 1, 4, 4, 8, 9)
	rng := rand.New(rand.NewPCG(3, 3))
	if _, err := RandomBatch(ds, rng, 9); err == nil {
		t.Error("oversized batch accepted")
	}
	b, err := RandomBatch(ds, rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	if b.Size() != 8 {
		t.Errorf("batch size %d", b.Size())
	}
}

func TestRandomBatchNoReplacement(t *testing.T) {
	// Pinned generator: at tiny rasters an unlucky time-seeded dataset seed
	// can saturate two samples to identical images (all-white/all-black),
	// which is noise, not a replacement bug — keep the inputs reproducible.
	cfg := &quick.Config{MaxCount: 5, Rand: mrand.New(mrand.NewSource(11))}
	err := quick.Check(func(seed uint64) bool {
		ds := NewSynthCustom("nr", 4, 1, 8, 8, 20, seed)
		rng := rand.New(rand.NewPCG(seed, 5))
		b, err := RandomBatch(ds, rng, 10)
		if err != nil {
			return false
		}
		// Distinct images (procedural samples differ across indices).
		for i := 0; i < b.Size(); i++ {
			for j := i + 1; j < b.Size(); j++ {
				if imaging.MSE(b.Images[i], b.Images[j]) == 0 {
					return false
				}
			}
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

func TestUniqueLabelBatch(t *testing.T) {
	ds := NewSynthCIFAR100(7)
	rng := rand.New(rand.NewPCG(4, 4))
	b, err := UniqueLabelBatch(ds, rng, 32)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, y := range b.Labels {
		if seen[y] {
			t.Fatalf("duplicate label %d in unique-label batch", y)
		}
		seen[y] = true
	}
	if _, err := UniqueLabelBatch(ds, rng, 101); err == nil {
		t.Error("batch larger than class count accepted")
	}
}

func TestSplitDisjointAndSized(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	parts, err := Split(100, rng, 60, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts[0]) != 60 || len(parts[1]) != 30 {
		t.Fatalf("split sizes %d/%d", len(parts[0]), len(parts[1]))
	}
	seen := map[int]bool{}
	for _, part := range parts {
		for _, idx := range part {
			if seen[idx] {
				t.Fatalf("index %d in two parts", idx)
			}
			seen[idx] = true
		}
	}
	if _, err := Split(10, rng, 6, 6); err == nil {
		t.Error("oversubscribed split accepted")
	}
}

func TestSubset(t *testing.T) {
	ds := NewSynthCustom("s", 4, 1, 4, 4, 40, 11)
	sub := NewSubset(ds, []int{5, 6, 7}, "sub")
	if sub.Len() != 3 {
		t.Fatalf("subset len %d", sub.Len())
	}
	want, wantY := ds.Sample(6)
	got, gotY := sub.Sample(1)
	if wantY != gotY || imaging.MSE(want, got) != 0 {
		t.Error("subset index mapping broken")
	}
	if sub.NumClasses() != ds.NumClasses() {
		t.Error("subset class count")
	}
}

func TestBatchAppend(t *testing.T) {
	b := &Batch{}
	im := imaging.NewImage(1, 2, 2)
	b.Append(im, 3)
	if b.Size() != 1 || b.Labels[0] != 3 {
		t.Error("Append failed")
	}
}

// TestSynthCachedMatchesUncached: four goroutines sampling a Cached Synth at
// once, each from its own starting index, get for every index the image an
// uncached Synth renders, bit for bit, and all four get the one shared
// image.
func TestSynthCachedMatchesUncached(t *testing.T) {
	plain := NewSynthCustom("cached", 5, 3, 6, 6, 97, 9)
	cached := plain.Cached()
	const goroutines = 4
	got := make([][]*imaging.Image, goroutines)
	var wg sync.WaitGroup
	for g := range goroutines {
		got[g] = make([]*imaging.Image, plain.Len())
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range plain.Len() {
				i := (k + g*plain.Len()/goroutines) % plain.Len()
				got[g][i], _ = cached.Sample(i)
			}
		}()
	}
	wg.Wait()
	for i := range plain.Len() {
		want, wantLabel := plain.Sample(i)
		if _, label := cached.Sample(i); label != wantLabel {
			t.Fatalf("Sample(%d) label %d, uncached %d", i, label, wantLabel)
		}
		for g := range goroutines {
			if got[g][i] != got[0][i] {
				t.Fatalf("goroutines 0 and %d got different images for index %d", g, i)
			}
		}
		for p, v := range got[0][i].Pix {
			if math.Float64bits(v) != math.Float64bits(want.Pix[p]) {
				t.Fatalf("Sample(%d) pixel %d is %v, uncached %v", i, p, v, want.Pix[p])
			}
		}
	}
	if again, _ := cached.Sample(3); again != got[0][3] {
		t.Error("a later Sample(3) rendered a new image")
	}
	if out, _ := cached.Sample(plain.Len()); out == nil {
		t.Error("Sample past Len returned no image")
	}
}
