package data

import (
	"fmt"
	"math"
	rand "math/rand/v2"
)

// eagerPartition is the differential oracle for the lazy partitions: it
// makes the same keyed draws as each built-in policy's PartitionLazy, in the
// same order, but materializes every shard as a slice at once and rebalances
// empty shards by moving elements between slices. Only valid parameters are
// ever fed to it.
func eagerPartition(p Partitioner, ds Dataset, n int, rng *rand.Rand) ([][]int, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	switch p := p.(type) {
	case IID:
		return eagerIID(ds, n, rng), nil
	case Dirichlet:
		return eagerDirichlet(p.Alpha, ds, n, rng), nil
	case Quantity:
		return eagerQuantity(p.Sigma, ds, n, rng), nil
	default:
		return nil, fmt.Errorf("no eager oracle for partitioner %s", p.Name())
	}
}

// eagerIID permutes the index space and slices it into near-equal shards.
func eagerIID(ds Dataset, n int, rng *rand.Rand) [][]int {
	perm := rng.Perm(ds.Len())
	per, rem := ds.Len()/n, ds.Len()%n
	out := make([][]int, n)
	off := 0
	for i := range out {
		size := per
		if i < rem {
			size++
		}
		out[i] = append([]int(nil), perm[off:off+size]...)
		off += size
	}
	return out
}

// eagerDirichlet splits each class's samples by Dirichlet-drawn proportions,
// then rebalances so every client ends up with at least one sample.
func eagerDirichlet(alpha float64, ds Dataset, n int, rng *rand.Rand) [][]int {
	byClass, order := classIndex(ds)
	out := make([][]int, n)
	for _, y := range order {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		props := dirichletDraw(rng, alpha, n)
		counts := apportion(props, len(idx))
		off := 0
		for c, k := range counts {
			out[c] = append(out[c], idx[off:off+k]...)
			off += k
		}
	}
	rebalanceEmpty(out)
	return out
}

// eagerQuantity draws per-client log-normal weights, apportions the index
// space by them, and slices a random permutation accordingly.
func eagerQuantity(sigma float64, ds Dataset, n int, rng *rand.Rand) [][]int {
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = math.Exp(rng.NormFloat64() * sigma)
		total += weights[i]
	}
	props := make([]float64, n)
	for i, w := range weights {
		props[i] = w / total
	}
	counts := apportion(props, ds.Len())
	perm := rng.Perm(ds.Len())
	out := make([][]int, n)
	off := 0
	for i, k := range counts {
		out[i] = append([]int(nil), perm[off:off+k]...)
		off += k
	}
	rebalanceEmpty(out)
	return out
}

// rebalanceEmpty moves one sample from the currently largest shard into each
// empty shard, so every client can train. Deterministic: the donor is the
// lowest-indexed largest shard, and the moved sample is its last element.
func rebalanceEmpty(parts [][]int) {
	for i := range parts {
		if len(parts[i]) > 0 {
			continue
		}
		donor, best := -1, 1
		for j := range parts {
			if len(parts[j]) > best {
				donor, best = j, len(parts[j])
			}
		}
		if donor < 0 {
			continue // nothing to donate; caller guaranteed len ≥ n, unreachable
		}
		last := len(parts[donor]) - 1
		parts[i] = append(parts[i], parts[donor][last])
		parts[donor] = parts[donor][:last]
	}
}
