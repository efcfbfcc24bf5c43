package fl

import (
	"math"
	mrand "math/rand"
	rand "math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/oasisfl/oasis/internal/tensor"
)

// genUpdates draws 1–9 client updates of two tensors each ([3] and [2,2]),
// with coordinates spread over seven orders of magnitude so norm clipping
// both fires and passes.
func genUpdates(rng *rand.Rand) []Update {
	updates := make([]Update, 1+rng.IntN(9))
	for c := range updates {
		grads := []*tensor.Tensor{tensor.New(3), tensor.New(2, 2)}
		for _, g := range grads {
			for i := range g.Data() {
				g.Data()[i] = rng.NormFloat64() * math.Pow(10, float64(rng.IntN(7)-3))
			}
		}
		updates[c] = Update{ClientID: string(rune('a' + c)), Grads: grads}
	}
	return updates
}

// aggregate folds updates through a fresh aggregator resolved from spec and
// returns the flattened output.
func aggregate(t *testing.T, spec string, updates []Update) []float64 {
	t.Helper()
	a, err := NewAggregatorByName(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range updates {
		if err := a.Add(u); err != nil {
			t.Fatal(err)
		}
	}
	out, err := a.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var flat []float64
	for _, g := range out {
		flat = append(flat, g.Data()...)
	}
	return flat
}

// columnMaxAbs returns, per output coordinate, the largest magnitude any
// update holds there.
func columnMaxAbs(updates []Update) []float64 {
	var out []float64
	for c, u := range updates {
		i := 0
		for _, g := range u.Grads {
			for _, v := range g.Data() {
				if c == 0 {
					out = append(out, 0)
				}
				out[i] = max(out[i], math.Abs(v))
				i++
			}
		}
	}
	return out
}

func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }

// TestAggregatorPermutationProperty: the order statistics (median, trimmed
// mean) sort every coordinate's column, so any permutation of the updates
// gives bit-identical output. Mean and norm clipping sum in arrival order, so
// a permutation may move each coordinate by float rounding only: at most
// 2n ulps of the column's largest magnitude for n updates.
func TestAggregatorPermutationProperty(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		exact bool
	}{
		{"median", true},
		{"trimmed", true},
		{"trimmed:0.3", true},
		{"mean", false},
		{"normclip:1", false},
	} {
		t.Run(tc.spec, func(t *testing.T) {
			err := quick.Check(func(seed uint64) bool {
				rng := rand.New(rand.NewPCG(seed, 0xa99))
				updates := genUpdates(rng)
				permuted := make([]Update, len(updates))
				for i, j := range rng.Perm(len(updates)) {
					permuted[i] = updates[j]
				}
				got, want := aggregate(t, tc.spec, permuted), aggregate(t, tc.spec, updates)
				scale := columnMaxAbs(updates)
				n := float64(len(updates))
				for i := range want {
					if tc.exact && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Logf("seed %d coordinate %d: %v after permutation, %v before", seed, i, got[i], want[i])
						return false
					}
					if !tc.exact && math.Abs(got[i]-want[i]) > 2*n*ulp(scale[i]) {
						t.Logf("seed %d coordinate %d: %v after permutation, %v before", seed, i, got[i], want[i])
						return false
					}
				}
				return len(got) == len(want)
			}, &quick.Config{MaxCount: 300, Rand: mrand.New(mrand.NewSource(7))})
			if err != nil {
				t.Error(err)
			}
		})
	}
}
