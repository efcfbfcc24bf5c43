package fl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/tensor"
)

// mkUpdate builds a single-tensor update with the given values.
func mkUpdate(id string, vals ...float64) Update {
	t := tensor.New(len(vals))
	copy(t.Data(), vals)
	return Update{ClientID: id, Grads: []*tensor.Tensor{t}}
}

func finalizeOne(t *testing.T, a Aggregator, updates ...Update) []float64 {
	t.Helper()
	a.Reset()
	for _, u := range updates {
		if err := a.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	out, err := a.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Fatalf("finalize returned %d tensors, want 1", len(out))
	}
	return out[0].Data()
}

func TestFedAvgMeanAverages(t *testing.T) {
	got := finalizeOne(t, NewFedAvgMean(),
		mkUpdate("a", 1, 2), mkUpdate("b", 3, 4), mkUpdate("c", 5, 6))
	want := []float64{3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("mean[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestCoordinateMedianResistsOutlier(t *testing.T) {
	got := finalizeOne(t, NewCoordinateMedian(),
		mkUpdate("a", 1, 1), mkUpdate("b", 2, 2), mkUpdate("poison", 1e9, -1e9))
	for i, v := range got {
		if v != []float64{2, 1}[i] {
			t.Errorf("median[%d] = %g", i, v)
		}
	}
	// Even count: median of {1,2,3,4} per coordinate.
	got = finalizeOne(t, NewCoordinateMedian(),
		mkUpdate("a", 1), mkUpdate("b", 2), mkUpdate("c", 3), mkUpdate("d", 4))
	if got[0] != 2.5 {
		t.Errorf("even-count median = %g, want 2.5", got[0])
	}
}

func TestTrimmedMeanDropsTails(t *testing.T) {
	agg, err := NewTrimmedMean(0.25)
	if err != nil {
		t.Fatal(err)
	}
	// n=4, k=1: drop min and max, average the middle two.
	got := finalizeOne(t, agg,
		mkUpdate("a", 0), mkUpdate("b", 2), mkUpdate("c", 4), mkUpdate("poison", 1e9))
	if got[0] != 3 {
		t.Errorf("trimmed mean = %g, want 3", got[0])
	}
	if _, err := NewTrimmedMean(0.5); err == nil {
		t.Error("frac 0.5 accepted")
	}
	// Frac=0.3 with n=10 must trim exactly 3 per tail even though
	// 0.3*10 float-truncates to 2: all three colluding outliers per tail
	// must be discarded.
	agg03, err := NewTrimmedMean(0.3)
	if err != nil {
		t.Fatal(err)
	}
	updates := make([]Update, 0, 10)
	for i, v := range []float64{0, 0, 0, 1, 1, 1, 1, 100, 100, 100} {
		updates = append(updates, mkUpdate(fmt.Sprintf("u%d", i), v))
	}
	if got := finalizeOne(t, agg03, updates...); got[0] != 1 {
		t.Errorf("trimmed(0.3) over 10 updates = %g, want 1 (outlier survived the trim)", got[0])
	}
	if _, err := NewTrimmedMean(-0.1); err == nil {
		t.Error("negative frac accepted")
	}
}

func TestNormClippedBoundsOutlierInfluence(t *testing.T) {
	agg, err := NewNormClipped(1)
	if err != nil {
		t.Fatal(err)
	}
	// The honest update (norm 0.5) passes untouched; the poisoned one
	// (norm 1000) is scaled down to norm 1.
	got := finalizeOne(t, agg, mkUpdate("a", 0.5), mkUpdate("poison", 1000))
	if want := (0.5 + 1.0) / 2; math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("clipped mean = %g, want %g", got[0], want)
	}
	if _, err := NewNormClipped(0); err == nil {
		t.Error("zero clip accepted")
	}
}

func TestNormClippedDoesNotMutateUpdate(t *testing.T) {
	agg, err := NewNormClipped(1)
	if err != nil {
		t.Fatal(err)
	}
	agg.Reset()
	u := mkUpdate("big", 3, 4) // norm 5 > 1
	if err := agg.Add(u); err != nil {
		t.Fatal(err)
	}
	if u.Grads[0].Data()[0] != 3 || u.Grads[0].Data()[1] != 4 {
		t.Errorf("Add mutated the caller's gradients: %v", u.Grads[0].Data())
	}
}

func TestAggregatorShapeMismatch(t *testing.T) {
	clip := func() Aggregator {
		a, err := NewNormClipped(1)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	cases := []struct {
		name    string
		agg     Aggregator
		bad     Update
		wantErr string
	}{
		{"mean shape", NewFedAvgMean(), mkUpdate("b", 1, 2, 3), "shape"},
		{"median shape", NewCoordinateMedian(), mkUpdate("b", 1, 2, 3), "shape"},
		// A non-finite update once passed normclip: the clip scale 1/Inf
		// is 0, and Inf·0 wrote NaN into the global model.
		{"normclip +Inf", clip(), mkUpdate("b", math.Inf(1), 0.2), "not finite"},
		{"normclip -Inf", clip(), mkUpdate("b", 0.1, math.Inf(-1)), "not finite"},
		{"normclip NaN", clip(), mkUpdate("b", math.NaN(), 0.2), "not finite"},
	}
	for _, c := range cases {
		c.agg.Reset()
		if err := c.agg.Add(mkUpdate("a", 0.1, 0.2)); err != nil {
			t.Fatal(err)
		}
		err := c.agg.Add(c.bad)
		if err == nil {
			t.Errorf("%s: %s accepted the update", c.name, c.agg.Name())
		} else if !strings.Contains(err.Error(), c.wantErr) || !strings.Contains(err.Error(), "client b") {
			t.Errorf("%s: error %q does not name client b and contain %q", c.name, err, c.wantErr)
		}
	}
}

func TestAggregatorFinalizeEmpty(t *testing.T) {
	for _, a := range []Aggregator{NewFedAvgMean(), NewCoordinateMedian()} {
		a.Reset()
		if _, err := a.Finalize(); err == nil {
			t.Errorf("%s finalized empty without error", a.Name())
		}
	}
}

func TestAggregatorResetClearsState(t *testing.T) {
	clip, err := NewNormClipped(5)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		agg   Aggregator
		first float64
	}{
		{NewFedAvgMean(), 10},
		{clip, 5}, // round 1's update is clipped from 10 to 5
	} {
		first := finalizeOne(t, c.agg, mkUpdate("a", 10))
		got := finalizeOne(t, c.agg, mkUpdate("b", 2), mkUpdate("c", 4))
		if got[0] != 3 {
			t.Errorf("%s: post-Reset mean = %g, want 3 (state leaked across rounds)", c.agg.Name(), got[0])
		}
		// Finalize hands its tensors to the caller: a later round on the
		// same aggregator must not write into them.
		if first[0] != c.first {
			t.Errorf("%s: round 1's aggregate became %g after round 2, want %g", c.agg.Name(), first[0], c.first)
		}
	}
}

func TestNewAggregatorByName(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"mean", "mean"},
		{"fedavg", "mean"},
		{"median", "median"},
		{"trimmed", "trimmed(0.1)"},
		{"trimmed:0.25", "trimmed(0.25)"},
		{"normclip", "normclip(10)"},
		{"normclip:5", "normclip(5)"},
	}
	for _, c := range cases {
		a, err := NewAggregatorByName(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if a.Name() != c.want {
			t.Errorf("%s resolved to %s, want %s", c.spec, a.Name(), c.want)
		}
	}
	for _, bad := range []struct{ spec, wantErr string }{
		{"", "unknown aggregator"},
		{"krum", "unknown aggregator"},
		{"trimmed:x", "bad parameter"},
		{"mean:1", "takes no parameter"},
		{"normclip:-3", "finite max norm > 0"},
		// Non-finite parameters that once parsed: trimmed:NaN panicked in
		// Finalize, normclip:NaN wrote NaN into the global model.
		{"trimmed:NaN", "outside [0, 0.5)"},
		{"trimmed:Inf", "outside [0, 0.5)"},
		{"trimmed:-Inf", "outside [0, 0.5)"},
		{"normclip:NaN", "finite max norm > 0"},
		{"normclip:Inf", "finite max norm > 0"},
		{"normclip:-Inf", "finite max norm > 0"},
	} {
		if _, err := NewAggregatorByName(bad.spec); err == nil {
			t.Errorf("spec %q accepted", bad.spec)
		} else if !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("spec %q: error %q does not contain %q", bad.spec, err, bad.wantErr)
		}
	}
	if names := AggregatorNames(); len(names) < 4 || strings.Join(names, ",") != "mean,median,trimmed,normclip" {
		t.Errorf("AggregatorNames() = %v", names)
	}
}
