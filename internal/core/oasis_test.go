package core

import (
	"math"
	rand "math/rand/v2"
	"testing"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

func testBatch(seed uint64, n int) *data.Batch {
	rng := rand.New(rand.NewPCG(seed, 1))
	b := &data.Batch{}
	for i := 0; i < n; i++ {
		im := imaging.NewImage(3, 8, 8)
		for j := range im.Pix {
			im.Pix[j] = rng.Float64()
		}
		b.Append(im, i%4)
	}
	return b
}

func TestApplyBuildsEq7Union(t *testing.T) {
	b := testBatch(1, 4)
	def := New(augment.MajorRotation{})
	out := def.ApplyBatch(b)
	// |D′| = |D|·(1 + 3 rotations)
	if out.Size() != 16 {
		t.Fatalf("|D′| = %d, want 16", out.Size())
	}
	// The first |D| entries are the originals, untouched.
	for i := 0; i < 4; i++ {
		if imaging.MSE(out.Images[i], b.Images[i]) != 0 {
			t.Errorf("original %d was modified", i)
		}
	}
	// Every transform copies its source label (Eq. 7: X′_t labeled as x_t).
	for i := 4; i < 16; i++ {
		src := (i - 4) / 3
		if out.Labels[i] != b.Labels[src] {
			t.Errorf("transform %d has label %d, want %d", i, out.Labels[i], b.Labels[src])
		}
	}
	// MR+SH adds 3 rotations and 3 shears per image: |D′| = 7·|D|.
	mrsh := New(augment.NewCompose(augment.MajorRotation{}, augment.Shearing{}))
	if n := mrsh.ApplyBatch(b).Size(); n != 28 {
		t.Errorf("MR+SH |D′| = %d, want 28", n)
	}
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	b := testBatch(2, 3)
	before := make([]*imaging.Image, b.Size())
	for i, im := range b.Images {
		before[i] = im.Clone()
	}
	def := New(augment.Shearing{})
	def.ApplyBatch(b)
	if b.Size() != len(before) {
		t.Fatal("ApplyBatch mutated the input batch size")
	}
	for i := range b.Images {
		if imaging.MSE(b.Images[i], before[i]) != 0 {
			t.Fatal("ApplyBatch mutated an input image")
		}
	}
}

func TestApplyPreservesMean(t *testing.T) {
	// With PreserveMean on (the default), every transformed copy has the
	// same mean brightness as its source — the RTF bin-membership
	// guarantee.
	b := testBatch(3, 2)
	def := New(augment.NewCompose(augment.Shearing{}, augment.MinorRotation{}))
	out := def.ApplyBatch(b)
	kPer := (out.Size() - b.Size()) / b.Size()
	for ti := 0; ti < b.Size(); ti++ {
		want := b.Images[ti].Mean()
		for k := 0; k < kPer; k++ {
			got := out.Images[b.Size()+ti*kPer+k].Mean()
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("transform mean %.12f != source mean %.12f", got, want)
			}
		}
	}
}

func TestApplyWithoutPreserveMeanShiftsShears(t *testing.T) {
	b := testBatch(4, 1)
	def := &Defense{Policy: augment.Shearing{}, PreserveMean: false}
	out := def.ApplyBatch(b)
	// Zero-fill shearing loses bright mass; without restoration the means
	// must differ noticeably.
	src := b.Images[0].Mean()
	moved := false
	for _, im := range out.Images[1:] {
		if math.Abs(im.Mean()-src) > 1e-3 {
			moved = true
		}
	}
	if !moved {
		t.Error("expected zero-fill shear to change mean when PreserveMean is off")
	}
}

// TestApplyNilPolicy: a Defense without a policy is the "WO" baseline, the
// identity on the batch.
func TestApplyNilPolicy(t *testing.T) {
	def := &Defense{}
	b := testBatch(5, 2)
	if out := def.ApplyBatch(b); out != b {
		t.Errorf("nil-policy ApplyBatch returned a %d-image batch, want the input unchanged", out.Size())
	}
	if def.Name() != "WO" {
		t.Errorf("nil-policy name = %q, want WO", def.Name())
	}
}

func TestActivationSets(t *testing.T) {
	// Toy malicious layer: neuron 0 fires when x0 > 0.5, neuron 1 when
	// x1 > 0.5.
	w := tensor.MustFromSlice([]float64{
		1, 0,
		0, 1,
	}, 2, 2)
	bias := tensor.MustFromSlice([]float64{-0.5, -0.5}, 2)
	inputs := tensor.MustFromSlice([]float64{
		0.9, 0.1, // activates neuron 0 only
		0.1, 0.9, // activates neuron 1 only
		0.9, 0.9, // both
		0.1, 0.1, // neither
	}, 4, 2)
	sets := ActivationSets(w, bias, inputs)
	want := [][]bool{{true, false}, {false, true}, {true, true}, {false, false}}
	for i := range want {
		for j := range want[i] {
			if sets[i][j] != want[i][j] {
				t.Errorf("sets[%d][%d] = %v, want %v", i, j, sets[i][j], want[i][j])
			}
		}
	}
}

func TestAnalyzeProp1MeanMeasurementLayer(t *testing.T) {
	// A mean-brightness imprint layer (RTF-style): all weight rows equal
	// 1/d, ascending thresholds. With PreserveMean transforms, every
	// original must share its activation set with its transforms exactly.
	b := testBatch(6, 4)
	d := 3 * 8 * 8
	n := 32
	w := tensor.New(n, d)
	for i := range w.Data() {
		w.Data()[i] = 1.0 / float64(d)
	}
	bias := tensor.New(n)
	for i := 0; i < n; i++ {
		bias.Data()[i] = -(0.3 + 0.4*float64(i)/float64(n))
	}
	def := New(augment.MajorRotation{})
	rep, err := AnalyzeProp1(def, b, w, bias)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SameSetFraction != 1 {
		t.Errorf("same-set fraction = %g, want 1 (Proposition 1 exact)", rep.SameSetFraction)
	}
	if rep.SoloNeuronFraction != 0 {
		t.Errorf("solo fraction = %g, want 0", rep.SoloNeuronFraction)
	}
	if rep.MeanJaccard != 1 {
		t.Errorf("jaccard = %g, want 1", rep.MeanJaccard)
	}
}

func TestAnalyzeProp1WOBaseline(t *testing.T) {
	b := testBatch(7, 3)
	w := tensor.New(4, 3*8*8)
	rng := rand.New(rand.NewPCG(9, 9))
	w.FillRandn(rng, 0.1)
	bias := tensor.New(4)
	rep, err := AnalyzeProp1(&Defense{}, b, w, bias)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Policy != "WO" {
		t.Errorf("policy = %q", rep.Policy)
	}
	if rep.SameSetFraction != 0 || rep.MeanJaccard != 0 {
		t.Error("WO baseline should report zero transform overlap")
	}
}
