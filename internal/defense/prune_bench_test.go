package defense

import (
	"math"
	rand "math/rand/v2"
	"sort"
	"testing"

	"github.com/oasisfl/oasis/internal/tensor"
)

// sortApply is the pre-quickselect reference implementation: full sort of
// every coordinate magnitude per call. Kept here as the oracle the
// quickselect path must match exactly, and as the benchmark baseline.
func sortApply(keep float64, grads []*tensor.Tensor) {
	if keep >= 1 {
		return
	}
	total := 0
	for _, g := range grads {
		total += g.Len()
	}
	mags := make([]float64, 0, total)
	for _, g := range grads {
		for _, v := range g.Data() {
			mags = append(mags, math.Abs(v))
		}
	}
	sort.Float64s(mags)
	cut := mags[int(float64(total)*(1-keep))]
	for _, g := range grads {
		gd := g.Data()
		for i, v := range gd {
			if math.Abs(v) < cut {
				gd[i] = 0
			}
		}
	}
}

// TestPruningMatchesSortReference: for random gradients across many keep
// fractions, the quickselect threshold must reproduce the sort-based output
// coordinate for coordinate.
func TestPruningMatchesSortReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(20, 20))
	for _, keep := range []float64{0.05, 0.25, 0.5, 0.75, 0.99} {
		a := tensor.New(37, 13)
		a.FillRandn(rng, 1)
		b := tensor.New(101)
		b.FillRandn(rng, 0.1)
		want := []*tensor.Tensor{a.Clone(), b.Clone()}
		sortApply(keep, want)

		p, err := NewPruning(keep)
		if err != nil {
			t.Fatal(err)
		}
		got := []*tensor.Tensor{a, b}
		p.ApplyGrads(got)
		for i := range got {
			if !got[i].EqualApprox(want[i], 0) {
				t.Errorf("keep=%g tensor %d: quickselect output diverges from sort reference", keep, i)
			}
		}
	}
}

// TestPruningTieAtCut: when many coordinates share the exact cut magnitude,
// the strict |v| < cut rule keeps every tied coordinate — identical to the
// sorted-threshold behavior it replaced.
func TestPruningTieAtCut(t *testing.T) {
	// Sorted magnitudes: [1 1 2 2 2 2 3 3]; keep=0.5 → cut index 4 → cut=2.
	// Everything < 2 is zeroed, every tied 2 (and above) survives.
	g := tensor.MustFromSlice([]float64{2, -1, 2, 3, -2, 1, -3, 2}, 8)
	p, err := NewPruning(0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.ApplyGrads([]*tensor.Tensor{g})
	want := []float64{2, 0, 2, 3, -2, 0, -3, 2}
	for i, v := range g.Data() {
		if v != want[i] {
			t.Fatalf("tie handling diverged at %d: got %v, want %v", i, g.Data(), want)
		}
	}

	// All-equal magnitudes: cut equals every entry, nothing is zeroed.
	eq := tensor.MustFromSlice([]float64{4, -4, 4, -4, 4, -4}, 6)
	p2, err := NewPruning(0.3)
	if err != nil {
		t.Fatal(err)
	}
	p2.ApplyGrads([]*tensor.Tensor{eq})
	for i, v := range eq.Data() {
		if v == 0 {
			t.Fatalf("all-ties input lost coordinate %d", i)
		}
	}
}

// TestPruningEdgeInputs: a keep fraction so small that 1−keep rounds to 1.0,
// and an empty gradient set, must not panic.
func TestPruningEdgeInputs(t *testing.T) {
	p, err := NewPruning(1e-17) // in (0,1], but 1-keep == 1.0 in float64
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.MustFromSlice([]float64{3, -1, 2}, 3)
	p.ApplyGrads([]*tensor.Tensor{g}) // must keep only the largest magnitude
	if d := g.Data(); d[0] != 3 || d[1] != 0 || d[2] != 0 {
		t.Errorf("tiny keep fraction: got %v, want only the max kept", d)
	}
	p.ApplyGrads(nil)
	p.ApplyGrads([]*tensor.Tensor{})
}

// benchGrads builds an MLP-shaped gradient set (~210k coordinates).
func benchGrads(rng *rand.Rand) []*tensor.Tensor {
	w1 := tensor.New(256, 768)
	w1.FillRandn(rng, 1)
	b1 := tensor.New(256)
	b1.FillRandn(rng, 1)
	w2 := tensor.New(64, 256)
	w2.FillRandn(rng, 1)
	return []*tensor.Tensor{w1, b1, w2}
}

// BenchmarkPruningApply measures the quickselect path.
func BenchmarkPruningApply(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 21))
	orig := benchGrads(rng)
	p, err := NewPruning(0.3)
	if err != nil {
		b.Fatal(err)
	}
	work := make([]*tensor.Tensor, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range orig {
			work[j] = orig[j].Clone()
		}
		b.StartTimer()
		p.ApplyGrads(work)
	}
}

// BenchmarkPruningApplySortBaseline measures the replaced full-sort path on
// identical inputs; compare with BenchmarkPruningApply for the win.
func BenchmarkPruningApplySortBaseline(b *testing.B) {
	rng := rand.New(rand.NewPCG(21, 21))
	orig := benchGrads(rng)
	work := make([]*tensor.Tensor, len(orig))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j := range orig {
			work[j] = orig[j].Clone()
		}
		b.StartTimer()
		sortApply(0.3, work)
	}
}
