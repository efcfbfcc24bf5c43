package fl

import (
	"math"
	"testing"
)

// FuzzNewAggregator: NewAggregatorByName must reject a malformed spec with
// an error, never a panic, and an accepted spec must aggregate two finite
// updates into finite values that stay within each coordinate's range (or
// between it and zero, for norm clipping). Run beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzNewAggregator -fuzztime 10s ./internal/fl
func FuzzNewAggregator(f *testing.F) {
	for _, spec := range []string{
		"mean", "fedavg", "median", "trimmed", "trimmed:0.25", "normclip", "normclip:1e-3",
		// Non-finite parameters that once parsed: trimmed:NaN panicked in
		// Finalize, normclip:NaN wrote NaN into the global model.
		"trimmed:NaN", "normclip:NaN", "normclip:Inf",
		"trimmed:0.5", "median:1", "", "krum", "trimmed:", "normclip:-3",
	} {
		f.Add(spec)
	}
	updates := []Update{mkUpdate("a", 1, -2), mkUpdate("b", 3, 4)}
	f.Fuzz(func(t *testing.T, spec string) {
		agg, err := NewAggregatorByName(spec)
		if err != nil {
			return
		}
		agg.Reset()
		for _, u := range updates {
			if err := agg.Add(u); err != nil {
				t.Fatalf("%s: Add: %v", agg.Name(), err)
			}
		}
		out, err := agg.Finalize()
		if err != nil {
			t.Fatalf("%s: Finalize: %v", agg.Name(), err)
		}
		if len(out) != 1 || out[0].Len() != 2 {
			t.Fatalf("%s: Finalize returned %d tensors, want one of 2 values", agg.Name(), len(out))
		}
		for i, v := range out[0].Data() {
			a, b := updates[0].Grads[0].Data()[i], updates[1].Grads[0].Data()[i]
			lo, hi := min(a, b, 0), max(a, b, 0)
			if math.IsNaN(v) || v < lo || v > hi {
				t.Fatalf("%s: coordinate %d = %g, outside [%g, %g]", agg.Name(), i, v, lo, hi)
			}
		}
	})
}
