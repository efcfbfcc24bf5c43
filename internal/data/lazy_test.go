package data

import (
	"fmt"
	"math"
	mrand "math/rand"
	rand "math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

// lazyCases crosses every built-in policy with ragged population sizes,
// including combinations chosen to force the empty-shard rebalance path
// (many clients vs few samples with heavy skew).
var lazyCases = []struct {
	spec    string
	samples int
	clients []int
}{
	{"iid", 101, []int{1, 3, 7, 12, 97, 101}},
	{"dirichlet:0.5", 101, []int{1, 4, 10, 33}},
	{"dirichlet:0.1", 64, []int{5, 17, 50}}, // alpha 0.1 + n≈len forces rebalancing
	{"dirichlet:0.05", 60, []int{48, 60}},   // extreme skew: many empty draws
	{"quantity:0.5", 101, []int{2, 9, 25}},
	{"quantity:1", 50, []int{7, 40, 50}}, // sigma 1 + n≈len forces rebalancing
	{"quantity:0", 30, []int{4, 30}},
}

// TestLazyShardMatchesEager is the differential proof behind the
// lazy-materialization engine: for every policy and every shard k,
// Shard(k) must equal the eager oracle's shard k element for element, with
// ShardLen and Stats agreeing — including populations where the
// empty-shard rebalance rewrites donor shards.
func TestLazyShardMatchesEager(t *testing.T) {
	for _, tc := range lazyCases {
		for _, n := range tc.clients {
			t.Run(fmt.Sprintf("%s/n=%d", tc.spec, n), func(t *testing.T) {
				p, err := NewPartitioner(tc.spec)
				if err != nil {
					t.Fatal(err)
				}
				ds := NewSynthCustom("lazy-diff", 10, 1, 4, 4, tc.samples, 7)
				eager, err := eagerPartition(p, ds, n, rand.New(rand.NewPCG(99, 0x5c3a)))
				if err != nil {
					t.Fatal(err)
				}
				lazy, err := p.PartitionLazy(ds, n, rand.New(rand.NewPCG(99, 0x5c3a)))
				if err != nil {
					t.Fatal(err)
				}
				if lazy.Name() != p.Name() || lazy.Shards() != n {
					t.Fatalf("lazy identity = (%q, %d), want (%q, %d)", lazy.Name(), lazy.Shards(), p.Name(), n)
				}
				if err := matchEager(lazy, eager); err != nil {
					t.Fatal(err)
				}
				eMin, eMax, eTotal := tc.samples, 0, 0
				for _, shard := range eager {
					eMin = min(eMin, len(shard))
					eMax = max(eMax, len(shard))
					eTotal += len(shard)
				}
				gotMin, gotMax, gotMean := lazy.Stats()
				if gotMin != eMin || gotMax != eMax || gotMean != float64(eTotal)/float64(n) {
					t.Fatalf("Stats() = (%d, %d, %g), want (%d, %d, %g)",
						gotMin, gotMax, gotMean, eMin, eMax, float64(eTotal)/float64(n))
				}
			})
		}
	}
}

// matchEager reports the first shard where lazy's Shard or ShardLen differs
// from the eager oracle's result.
func matchEager(lazy *LazyPartition, eager [][]int) error {
	if lazy.Shards() != len(eager) {
		return fmt.Errorf("lazy has %d shards, eager %d", lazy.Shards(), len(eager))
	}
	for k := range eager {
		if got := lazy.Shard(k); !reflect.DeepEqual(got, eager[k]) {
			return fmt.Errorf("shard %d diverged:\n lazy: %v\neager: %v", k, got, eager[k])
		}
		if got := lazy.ShardLen(k); got != len(eager[k]) {
			return fmt.Errorf("ShardLen(%d) = %d, want %d", k, got, len(eager[k]))
		}
	}
	return nil
}

// partitionCase is one generated input of the partition property: a dataset
// shape, a population size, and a policy with its parameter.
type partitionCase struct {
	samples, classes, n int
	p                   Partitioner
	seed                uint64
}

// genPartitionCase draws a case from r: up to 120 samples over 1–10
// classes, any population size the dataset admits, and parameters spanning
// heavy skew (tiny alpha, large sigma) to near-IID.
func genPartitionCase(r *rand.Rand) partitionCase {
	c := partitionCase{samples: 1 + r.IntN(120), classes: 1 + r.IntN(10), seed: r.Uint64()}
	c.n = 1 + r.IntN(c.samples)
	switch r.IntN(3) {
	case 0:
		c.p = IID{}
	case 1:
		c.p = Dirichlet{Alpha: math.Exp(r.Float64()*12 - 7)} // ≈ 0.001 … 150
	default:
		c.p = Quantity{Sigma: r.Float64() * 4}
	}
	return c
}

// TestLazyPartitionProperty checks, over generated (samples, n, policy,
// parameter, seed), that every Shard(k) equals the eager oracle element for
// element and that the shards are non-empty, disjoint and cover every
// sample.
func TestLazyPartitionProperty(t *testing.T) {
	cfg := &quick.Config{MaxCount: 400, Rand: mrand.New(mrand.NewSource(20240601))}
	err := quick.Check(func(seed uint64) bool {
		c := genPartitionCase(rand.New(rand.NewPCG(seed, 0x9e3779b9)))
		ds := NewSynthCustom("lazy-prop", c.classes, 1, 4, 4, c.samples, c.seed)
		lazy, err := c.p.PartitionLazy(ds, c.n, rand.New(rand.NewPCG(c.seed, 1)))
		if err != nil {
			t.Logf("%+v: %v", c, err)
			return false
		}
		eager, err := eagerPartition(c.p, ds, c.n, rand.New(rand.NewPCG(c.seed, 1)))
		if err != nil {
			t.Logf("%+v: eager: %v", c, err)
			return false
		}
		if err := matchEager(lazy, eager); err != nil {
			t.Logf("%+v: %v", c, err)
			return false
		}
		if err := coverError(ds, eager, c.n); err != nil {
			t.Logf("%+v: %v", c, err)
			return false
		}
		return true
	}, cfg)
	if err != nil {
		t.Error(err)
	}
}

// TestLazyRebalanceActuallyExercised guards the test matrix itself: at least
// one case must hit the empty-shard rebalance, otherwise the donated /
// received replay in LazyPartition is dead code under test.
func TestLazyRebalanceActuallyExercised(t *testing.T) {
	hit := false
	for _, tc := range lazyCases {
		for _, n := range tc.clients {
			p, err := NewPartitioner(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			ds := NewSynthCustom("lazy-diff", 10, 1, 4, 4, tc.samples, 7)
			lazy, err := p.PartitionLazy(ds, n, rand.New(rand.NewPCG(99, 0x5c3a)))
			if err != nil {
				t.Fatal(err)
			}
			if lazy.donated != nil {
				hit = true
			}
		}
	}
	if !hit {
		t.Fatal("no lazy case triggered empty-shard rebalancing; widen lazyCases")
	}
}

// TestIIDShardPrefixStability pins the keyed-stream property the virtual
// engine's determinism rests on: the permutation underlying IID depends only
// on (dataset, seed), never on the client count, so growing the population
// re-slices the same stream instead of reshuffling it. Concatenating all
// shards must therefore yield the identical sequence for every n.
func TestIIDShardPrefixStability(t *testing.T) {
	ds := NewSynthCustom("lazy-prefix", 10, 1, 4, 4, 60, 7)
	flatten := func(n int) []int {
		lazy, err := IID{}.PartitionLazy(ds, n, rand.New(rand.NewPCG(11, 0x5c3a)))
		if err != nil {
			t.Fatal(err)
		}
		var all []int
		for k := 0; k < n; k++ {
			all = append(all, lazy.Shard(k)...)
		}
		return all
	}
	base := flatten(4)
	for _, n := range []int{5, 12, 60} {
		if got := flatten(n); !reflect.DeepEqual(got, base) {
			t.Fatalf("underlying IID stream changed when growing clients 4→%d", n)
		}
	}
}

// TestLazyPartitionErrors: bad arguments and degenerate parameters fail
// instead of producing empty or mislabelled populations.
func TestLazyPartitionErrors(t *testing.T) {
	ds := NewSynthCustom("lazy-err", 10, 1, 4, 4, 5, 7)
	rng := func() *rand.Rand { return rand.New(rand.NewPCG(1, 2)) }
	for _, tc := range []struct {
		name string
		p    Partitioner
		n    int
	}{
		{"n=0", IID{}, 0},
		{"n > len", IID{}, 6},
		{"negative alpha", Dirichlet{Alpha: -1}, 2},
		{"NaN alpha", Dirichlet{Alpha: math.NaN()}, 2},
		{"infinite alpha", Dirichlet{Alpha: math.Inf(1)}, 2},
		{"negative sigma", Quantity{Sigma: -1}, 2},
		{"NaN sigma", Quantity{Sigma: math.NaN()}, 2},
		{"infinite sigma", Quantity{Sigma: math.Inf(1)}, 2},
		{"overflowing sigma", Quantity{Sigma: 1e308}, 2},
	} {
		if _, err := tc.p.PartitionLazy(ds, tc.n, rng()); err == nil {
			t.Errorf("%s: %s over %d clients should fail", tc.name, tc.p.Name(), tc.n)
		}
	}
	for _, spec := range []string{"quantity:Inf", "dirichlet:NaN", "dirichlet:Inf", "quantity:NaN"} {
		if _, err := NewPartitioner(spec); err == nil {
			t.Errorf("NewPartitioner(%q) accepted a non-finite parameter", spec)
		}
	}
}

// TestSynthLabelMatchesSample pins the Labeler fast path against the
// rendering path.
func TestSynthLabelMatchesSample(t *testing.T) {
	ds := NewSynthCustom("label-check", 7, 1, 4, 4, 29, 3)
	for i := 0; i < ds.Len(); i++ {
		_, want := ds.Sample(i)
		if got := ds.Label(i); got != want {
			t.Fatalf("Label(%d) = %d, Sample label = %d", i, got, want)
		}
	}
}
