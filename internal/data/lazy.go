package data

import (
	"math"
	"sort"
)

// LazyPartition is the deferred form of a Partitioner's result: the policy
// performs every keyed draw — permutations, Dirichlet proportions,
// log-normal weights, rebalancing — once, up front, but the partition
// stores only the shuffled sample pools plus per-shard offset tables instead
// of n materialized [][]int shards. Shard(k) then reconstructs client k's
// shard on demand, without touching shards 0..k-1, so a million-client
// population costs O(samples) to describe and O(cohort) to materialize per
// round.
//
// The differential tests in lazy_test.go pin Shard(k) element for element
// against a reference implementation that materializes every shard at once.
type LazyPartition struct {
	name string
	n    int
	// pools are the shuffled sample pools the policy drew (one for iid and
	// quantity, one per class for dirichlet); offsets[p] holds n+1 prefix
	// offsets, so pool p's slice of shard k is pools[p][offsets[p][k]:
	// offsets[p][k+1]]. Shard k is the concatenation of its pool slices in
	// pool order (for dirichlet, ascending class label).
	pools   [][]int32
	offsets [][]int32
	// lens are the final shard lengths after rebalancing.
	lens []int32
	// donated / received record the empty-shard rebalance without
	// materializing: shard k's base slice loses its donated[k] trailing
	// elements, and an originally-empty shard holds exactly the received[k]
	// sample index (-1 = none). Both are nil when no shard came up empty.
	donated  []int32
	received []int32
}

// Name labels the policy that produced the partition (e.g. "dirichlet:0.1").
func (lp *LazyPartition) Name() string { return lp.name }

// Shards returns the number of client shards n.
func (lp *LazyPartition) Shards() int { return lp.n }

// ShardLen returns shard k's size without materializing it.
func (lp *LazyPartition) ShardLen(k int) int { return int(lp.lens[k]) }

// Shard materializes client k's index shard. The caller owns the returned
// slice.
func (lp *LazyPartition) Shard(k int) []int {
	base := 0
	for p := range lp.pools {
		base += int(lp.offsets[p][k+1] - lp.offsets[p][k])
	}
	out := make([]int, 0, max(base, 1))
	for p, pool := range lp.pools {
		for _, v := range pool[lp.offsets[p][k]:lp.offsets[p][k+1]] {
			out = append(out, int(v))
		}
	}
	if lp.donated != nil && lp.donated[k] > 0 {
		out = out[:len(out)-int(lp.donated[k])]
	}
	if lp.received != nil && lp.received[k] >= 0 {
		out = append(out, int(lp.received[k]))
	}
	return out
}

// Stats summarizes the shard sizes without materializing any shard.
func (lp *LazyPartition) Stats() (minLen, maxLen int, mean float64) {
	minLen = math.MaxInt
	total := 0
	for _, l := range lp.lens {
		if int(l) < minLen {
			minLen = int(l)
		}
		if int(l) > maxLen {
			maxLen = int(l)
		}
		total += int(l)
	}
	if lp.n == 0 {
		return 0, 0, 0
	}
	return minLen, maxLen, float64(total) / float64(lp.n)
}

// elementAt returns shard k's base element at position pos (pool
// concatenation order, before rebalancing edits).
func (lp *LazyPartition) elementAt(k, pos int) int32 {
	for p, pool := range lp.pools {
		span := int(lp.offsets[p][k+1] - lp.offsets[p][k])
		if pos < span {
			return pool[int(lp.offsets[p][k])+pos]
		}
		pos -= span
	}
	panic("data: lazy partition rebalance position out of range")
}

// rebalance gives every empty shard one sample, so every client can train:
// the lowest-indexed largest shard donates its current last element to each
// empty shard in index order, recorded as (donated count, received sample)
// edits on the offset tables instead of slice mutations.
func (lp *LazyPartition) rebalance() {
	empty := false
	for _, l := range lp.lens {
		if l == 0 {
			empty = true
			break
		}
	}
	if !empty {
		return
	}
	baseLens := append([]int32(nil), lp.lens...)
	lp.donated = make([]int32, lp.n)
	lp.received = make([]int32, lp.n)
	for i := range lp.received {
		lp.received[i] = -1
	}
	for i := 0; i < lp.n; i++ {
		if lp.lens[i] > 0 {
			continue
		}
		donor, best := -1, int32(1)
		for j := range lp.lens {
			if lp.lens[j] > best {
				donor, best = j, lp.lens[j]
			}
		}
		if donor < 0 {
			continue // nothing to donate; caller guaranteed len ≥ n, unreachable
		}
		pos := int(baseLens[donor] - 1 - lp.donated[donor])
		lp.received[i] = lp.elementAt(donor, pos)
		lp.donated[donor]++
		lp.lens[donor]--
		lp.lens[i] = 1
	}
}

// toInt32 narrows an index slice for compact pool storage.
func toInt32(idx []int) []int32 {
	out := make([]int32, len(idx))
	for i, v := range idx {
		out[i] = int32(v)
	}
	return out
}

// classIndex groups the dataset's sample indices by label, with the labels
// in sorted order.
func classIndex(ds Dataset) (byClass map[int][]int, order []int) {
	byClass = make(map[int][]int)
	for i := 0; i < ds.Len(); i++ {
		y := sampleLabel(ds, i)
		if _, ok := byClass[y]; !ok {
			order = append(order, y)
		}
		byClass[y] = append(byClass[y], i)
	}
	sort.Ints(order)
	return byClass, order
}

// sampleLabel reads sample i's label, through the Labeler fast path when the
// dataset offers one — label-skew partitioning over a procedural
// million-sample dataset must not render every image just to learn its
// class.
func sampleLabel(ds Dataset, i int) int {
	if l, ok := ds.(Labeler); ok {
		return l.Label(i)
	}
	_, y := ds.Sample(i)
	return y
}
