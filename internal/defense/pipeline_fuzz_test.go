package defense

import (
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

// maxFuzzBatch bounds the batch the harness threads through a fuzzed
// pipeline: every OASIS stage multiplies the batch, so a long chain of them
// grows it exponentially. Stages after the batch passes this size are not
// applied.
const maxFuzzBatch = 1 << 10

// FuzzNewPipeline: NewPipeline must reject a malformed spec with an error,
// never a panic, and an accepted spec must build the same composite label
// every time. An accepted spec, built with an rng, then runs both stages on
// a fixed two-image 1×4×4 batch and a small gradient: no stage may panic,
// mutate the batch it is given, or return a batch whose label count differs
// from its image count. Run beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzNewPipeline -fuzztime 10s ./internal/defense
func FuzzNewPipeline(f *testing.F) {
	for _, spec := range []string{
		"oasis:MR", "oasis:MR+SH|dpsgd:1,0.1", "dpsgd:2.5,0", "prune:0.3", "prune:1", "ats:MR",
		"oasis:MR|prune:0.5|dpsgd:1,1e-3",
		// Non-finite parameters that once parsed and wrote NaN or ±Inf
		// into every gradient coordinate, and finite ones whose noise
		// scale σ·clip overflows.
		"dpsgd:1,NaN", "dpsgd:Inf,1", "dpsgd:1,Inf", "dpsgd:-Inf,1", "prune:NaN", "dpsgd:1e200,1e200",
		"", "|", "oasis", "oasis:WO", "tinfoil:9", "dpsgd:1", "dpsgd:,", "prune:", "oasis:MR||prune:0.5",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		first, err := NewPipeline(spec, Config{Rng: testRng(1, 2)})
		if err != nil {
			return
		}
		again, err := NewPipeline(spec, Config{})
		if err != nil {
			t.Fatalf("%q accepted once, then rejected: %v", spec, err)
		}
		if first.Name() != again.Name() {
			t.Fatalf("%q built %q, then %q", spec, first.Name(), again.Name())
		}
		b := fuzzBatch()
		for _, s := range first.Stages() {
			if b.Size() > maxFuzzBatch {
				break
			}
			before := cloneBatch(b)
			out := s.ApplyBatch(b)
			if !sameBatch(b, before) {
				t.Fatalf("%q: stage %s mutated its input batch", spec, s.Name())
			}
			if len(out.Labels) != out.Size() {
				t.Fatalf("%q: stage %s returned %d labels for %d images", spec, s.Name(), len(out.Labels), out.Size())
			}
			b = out
		}
		first.ApplyGrads([]*tensor.Tensor{
			tensor.MustFromSlice([]float64{0.5, -2, 0, 3, 1e-3, -0.25}, 2, 3),
			tensor.MustFromSlice([]float64{1, -1}, 2),
		})
	})
}

// fuzzBatch is the fixed two-image 1×4×4 batch the fuzzed pipelines defend.
func fuzzBatch() *data.Batch {
	b := &data.Batch{}
	for i := 0; i < 2; i++ {
		im := imaging.NewImage(1, 4, 4)
		for j := range im.Pix {
			im.Pix[j] = float64((i*7+j*5)%16) / 15
		}
		b.Append(im, i)
	}
	return b
}

// cloneBatch deep-copies b, so a stage that writes to its input shows.
func cloneBatch(b *data.Batch) *data.Batch {
	out := &data.Batch{}
	for i, im := range b.Images {
		out.Append(im.Clone(), b.Labels[i])
	}
	return out
}

// sameBatch reports whether a and b hold the same labels and pixels.
func sameBatch(a, b *data.Batch) bool {
	if a.Size() != b.Size() || len(a.Labels) != len(b.Labels) {
		return false
	}
	for i, im := range a.Images {
		if a.Labels[i] != b.Labels[i] || imaging.MSE(im, b.Images[i]) != 0 {
			return false
		}
	}
	return true
}
