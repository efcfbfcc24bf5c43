package data

import (
	rand "math/rand/v2"
	"testing"
)

// FuzzNewPartitioner: for every spec NewPartitioner accepts, partitioning a
// small dataset must either return an error or give non-empty, disjoint
// shards that cover every sample — never an empty or partial population.
// Run beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzNewPartitioner -fuzztime 10s ./internal/data
func FuzzNewPartitioner(f *testing.F) {
	for _, spec := range []string{
		"iid", "dirichlet", "dirichlet:0.05", "dirichlet:1e-300", "dirichlet:1.7e308",
		"quantity", "quantity:0", "quantity:3", "quantity:60",
		// Degenerate parameters that once produced empty or silently
		// equal-split populations.
		"quantity:Inf", "quantity:1e308", "quantity:NaN", "dirichlet:NaN", "dirichlet:Inf",
		"iid:1", "zipf", "",
	} {
		f.Add(spec, uint8(7), uint64(1))
	}
	f.Add("dirichlet:0.01", uint8(40), uint64(9))
	f.Add("quantity:2", uint8(40), uint64(3))
	ds := NewSynthCustom("fuzz-part", 5, 1, 4, 4, 40, 3)
	f.Fuzz(func(t *testing.T, spec string, n uint8, seed uint64) {
		p, err := NewPartitioner(spec)
		if err != nil {
			return
		}
		lp, err := p.PartitionLazy(ds, int(n), rand.New(rand.NewPCG(seed, 0xf022)))
		if err != nil {
			return
		}
		parts := make([][]int, lp.Shards())
		for k := range parts {
			parts[k] = lp.Shard(k)
		}
		if err := coverError(ds, parts, int(n)); err != nil {
			t.Fatalf("%s over %d clients (seed %d): %v", spec, n, seed, err)
		}
	})
}
