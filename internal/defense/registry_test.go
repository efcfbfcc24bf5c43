package defense

import (
	"math"
	rand "math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

func testRng(a, b uint64) *rand.Rand { return rand.New(rand.NewPCG(a, b)) }

func testBatch(rng *rand.Rand, n int) *data.Batch {
	b := &data.Batch{}
	for i := 0; i < n; i++ {
		im := imaging.NewImage(1, 6, 6)
		for j := range im.Pix {
			im.Pix[j] = rng.Float64()
		}
		b.Append(im, i%3)
	}
	return b
}

// TestRegistryRoundTrips is the table-driven parse suite: every registered
// built-in kind must construct from its spec and resolve the expected label,
// standalone and as a single-segment pipeline.
func TestRegistryRoundTrips(t *testing.T) {
	cases := []struct {
		spec     string
		wantName string
	}{
		{"oasis:MR", "oasis(MR)"},
		{"oasis:mR", "oasis(mR)"},
		{"oasis:MR+SH", "oasis(MR+SH)"},
		{"dpsgd:1,0.1", "dpsgd(σ=0.1)"},
		{"dpsgd:2.5,0", "dpsgd(σ=0)"},
		{"prune:0.3", "prune(keep=0.3)"},
		{"prune:1", "prune(keep=1)"},
		{"ats:MR", "ats(MR)"},
		{"ats:SH", "ats(SH)"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			d, err := New(tc.spec, Config{Rng: testRng(1, 1)})
			if err != nil {
				t.Fatalf("New(%q): %v", tc.spec, err)
			}
			if d.Name() != tc.wantName {
				t.Errorf("New(%q).Name() = %q, want %q", tc.spec, d.Name(), tc.wantName)
			}
			p, err := NewPipeline(tc.spec, Config{Rng: testRng(1, 1)})
			if err != nil {
				t.Fatalf("NewPipeline(%q): %v", tc.spec, err)
			}
			if p.Name() != tc.wantName {
				t.Errorf("single-segment pipeline name = %q, want %q", p.Name(), tc.wantName)
			}
		})
	}
}

// TestRegistryMalformedSpecs: every malformed spec must error naming the
// offending kind or segment, never panic.
func TestRegistryMalformedSpecs(t *testing.T) {
	cases := []struct {
		spec    string
		wantErr string
	}{
		{"", "segment 1 is empty"},
		{"tinfoil", "unknown kind"},
		{"tinfoil:9", "unknown kind"},
		{"oasis", "unknown policy"},
		{"oasis:bogus", "unknown policy"},
		{"oasis:WO", "no-defense baseline"},
		{"dpsgd:1", "want dpsgd:<clip>,<sigma>"},
		{"dpsgd:x,y", "numeric"},
		{"dpsgd:0,0.1", "clip > 0"},
		{"dpsgd:1,-1", "sigma ≥ 0"},
		{"prune:nope", "prune:<keep>"},
		{"prune:0", "outside (0,1]"},
		{"prune:1.5", "outside (0,1]"},
		{"prune:NaN", "outside (0,1]"},
		{"dpsgd:1,NaN", "finite sigma"},
		{"dpsgd:NaN,1", "finite clip"},
		{"dpsgd:Inf,1", "finite clip"},
		{"dpsgd:1,Inf", "finite sigma"},
		{"ats:bogus", "unknown policy"},
		{"ats:WO", "needs a transformation policy"},
		{"oasis:MR|", "segment 2 is empty"},
		{"|oasis:MR", "segment 1 is empty"},
		{"oasis:MR||prune:0.5", "segment 2 is empty"},
		{"oasis:MR|tinfoil", "segment 2"},
		{"oasis:MR|dpsgd:1", "segment 2"},
		{" | ", "segment 1 is empty"},
	}
	for _, tc := range cases {
		t.Run(tc.spec, func(t *testing.T) {
			if _, err := NewPipeline(tc.spec, Config{Rng: testRng(2, 2)}); err == nil {
				t.Fatalf("NewPipeline(%q) accepted", tc.spec)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("NewPipeline(%q) error %q does not contain %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

// TestPipelineComposesStages: a composed pipeline must expand the batch
// through its batch stage AND transform gradients through its gradient
// stage, with a deterministic composite name in application order.
func TestPipelineComposesStages(t *testing.T) {
	p, err := NewPipeline("oasis:MR|dpsgd:1,0", Config{Rng: testRng(3, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if want := "oasis(MR)|dpsgd(σ=0)"; p.Name() != want {
		t.Errorf("pipeline name = %q, want %q", p.Name(), want)
	}
	if names := p.StageNames(); !reflect.DeepEqual(names, []string{"oasis(MR)", "dpsgd(σ=0)"}) {
		t.Errorf("stage names = %v", names)
	}
	if len(p.Stages()) != 2 {
		t.Errorf("len(Stages()) = %d, want 2", len(p.Stages()))
	}

	b := testBatch(testRng(4, 4), 4)
	out := p.ApplyBatch(b)
	if out.Size() != 16 { // MR appends 3 rotations per image
		t.Errorf("batch stage expanded 4 → %d images, want 16", out.Size())
	}
	if b.Size() != 4 {
		t.Errorf("input batch mutated to %d images", b.Size())
	}

	g := tensor.New(5, 5)
	g.FillRandn(testRng(5, 5), 10) // norm >> clip=1
	p.ApplyGrads([]*tensor.Tensor{g})
	if n := g.L2Norm(); math.Abs(n-1) > 1e-9 {
		t.Errorf("gradient stage did not clip: norm %g, want 1", n)
	}
}

// TestPipelineStageOrder: batch stages run in spec order — ats after oasis
// transforms the expanded batch, oasis after ats expands the replaced one.
// Both orders must produce the size the order implies.
func TestPipelineStageOrder(t *testing.T) {
	b := testBatch(testRng(6, 6), 2)
	first, err := NewPipeline("oasis:MR|ats:SH", Config{Rng: testRng(7, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if got := first.ApplyBatch(b).Size(); got != 8 {
		t.Errorf("oasis|ats: %d images, want 8 (expand then replace)", got)
	}
	second, err := NewPipeline("ats:SH|oasis:MR", Config{Rng: testRng(7, 7)})
	if err != nil {
		t.Fatal(err)
	}
	if got := second.ApplyBatch(b).Size(); got != 8 {
		t.Errorf("ats|oasis: %d images, want 8 (replace then expand)", got)
	}
}

// TestPipelineDuplicateStagesStack: the same kind may appear twice; both
// instances apply (two prune passes tighten monotonically, names repeat).
func TestPipelineDuplicateStagesStack(t *testing.T) {
	p, err := NewPipeline("prune:0.5|prune:0.5", Config{})
	if err != nil {
		t.Fatal(err)
	}
	if want := "prune(keep=0.5)|prune(keep=0.5)"; p.Name() != want {
		t.Errorf("duplicate-stage name = %q, want %q", p.Name(), want)
	}
	g := tensor.New(100)
	g.FillRandn(testRng(8, 8), 1)
	p.ApplyGrads([]*tensor.Tensor{g})
	zeros := 0
	for _, v := range g.Data() {
		if v == 0 {
			zeros++
		}
	}
	// First pass zeroes ~50; the second prunes the survivors again, so well
	// over half of all coordinates end up zero.
	if zeros < 50 {
		t.Errorf("stacked pruning zeroed only %d/100 coordinates", zeros)
	}
}

// TestComposeReachesBothStages: Compose wraps constructed defenses, and the
// pipeline passes the batch through a gradient-only stage unchanged while its
// gradient stage still reaches the gradients.
func TestComposeReachesBothStages(t *testing.T) {
	dp, err := NewDPSGD(1, 0, testRng(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	p := Compose(dp)
	if p.Name() != "dpsgd(σ=0)" {
		t.Errorf("composed name = %q", p.Name())
	}
	b := testBatch(testRng(10, 10), 3)
	if out := p.ApplyBatch(b); out != b {
		t.Errorf("ApplyBatch = %d-image batch, want the input passed through", out.Size())
	}
	g := tensor.New(8)
	g.FillRandn(testRng(11, 11), 10)
	p.ApplyGrads([]*tensor.Tensor{g})
	if n := g.L2Norm(); math.Abs(n-1) > 1e-9 {
		t.Errorf("ApplyGrads did not reach the gradient stage: norm %g", n)
	}
}

// registerNoopTest registers the "noop-test" kind once per process, so the
// test that needs it passes at any -count.
var registerNoopTest = sync.OnceValue(func() error {
	return Register("noop-test", func(arg string, cfg Config) (Defense, error) {
		return NewPruning(1)
	})
})

// TestRegisterValidation: the registry rejects empty, duplicate, and
// metacharacter kinds, and accepts a well-formed custom family that then
// resolves through New, Names, Known, and pipelines.
func TestRegisterValidation(t *testing.T) {
	if err := Register("", nil); err == nil {
		t.Error("empty registration accepted")
	}
	if err := Register("oasis", newOASISStage); err == nil {
		t.Error("duplicate kind accepted")
	}
	if err := Register("a:b", newOASISStage); err == nil {
		t.Error("kind containing ':' accepted")
	}
	if err := Register("a|b", newOASISStage); err == nil {
		t.Error("kind containing '|' accepted")
	}
	if err := registerNoopTest(); err != nil {
		t.Fatalf("custom registration failed: %v", err)
	}
	if !Known("noop-test") {
		t.Error("Known(noop-test) = false after Register")
	}
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	found := false
	for _, n := range names {
		found = found || n == "noop-test"
	}
	if !found {
		t.Errorf("Names() %v missing registered kind", names)
	}
	if _, err := NewPipeline("noop-test|prune:0.9", Config{}); err != nil {
		t.Errorf("custom kind rejected as pipeline segment: %v", err)
	}
}

// TestPipelineStageRngsIndependent: each stage draws from its own stream, so
// appending a stage must not change the draws of the stage before it.
func TestPipelineStageRngsIndependent(t *testing.T) {
	apply := func(spec string) []float64 {
		p, err := NewPipeline(spec, Config{Rng: testRng(12, 12)})
		if err != nil {
			t.Fatal(err)
		}
		g := tensor.New(16)
		g.Fill(0.01)
		p.ApplyGrads([]*tensor.Tensor{g})
		return append([]float64(nil), g.Data()...)
	}
	solo := apply("dpsgd:1,0.5")
	chained := apply("dpsgd:1,0.5|ats:MR") // appended stage is gradient-neutral
	if !reflect.DeepEqual(solo, chained) {
		t.Error("appending a stage perturbed the noise draws of the stage before it")
	}
}
