package defense

import "testing"

// FuzzNewPipeline: NewPipeline must reject a malformed spec with an error,
// never a panic, and an accepted spec must build the same composite label
// every time. Run beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzNewPipeline -fuzztime 10s ./internal/defense
func FuzzNewPipeline(f *testing.F) {
	for _, spec := range []string{
		"oasis:MR", "oasis:MR+SH|dpsgd:1,0.1", "dpsgd:2.5,0", "prune:0.3", "prune:1", "ats:MR",
		"oasis:MR|prune:0.5|dpsgd:1,1e-3",
		// Non-finite parameters that once parsed and wrote NaN or ±Inf
		// into every gradient coordinate.
		"dpsgd:1,NaN", "dpsgd:Inf,1", "dpsgd:1,Inf", "dpsgd:-Inf,1", "prune:NaN",
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
	})
}
