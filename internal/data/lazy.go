package data

import (
	"math"
	"sort"
)

// LazyPartition is the deferred form of a Partitioner's result: the policy
// performs every keyed draw — permutations, Dirichlet proportions,
// log-normal weights, rebalancing — once, up front, but the partition
// stores only the shuffled sample pools plus, where a pool is not split
// evenly, its offset table instead of n materialized [][]int shards.
// Shard(k) then reconstructs client k's shard on demand, without touching
// shards 0..k-1, and every shard length is derived from the offsets, so a
// million-client population costs O(samples) to describe and O(cohort) to
// materialize per round. An IID partition keeps no per-client table at all:
// 2M samples over 1M clients retain the 8 MB pool and nothing else.
//
// The differential tests in lazy_test.go pin Shard(k) element for element
// against a reference implementation that materializes every shard at once.
type LazyPartition struct {
	name string
	n    int
	// pools are the shuffled sample pools the policy drew (one for iid and
	// quantity, one per class for dirichlet). Pool p's slice of shard k is
	// pools[p][off(p, k):off(p, k+1)]: offsets[p] holds those n+1 prefix
	// offsets, or is nil when pool p is split evenly (see off). Shard k is
	// the concatenation of its pool slices in pool order (for dirichlet,
	// ascending class label).
	pools   [][]int32
	offsets [][]int32
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

// off returns where shard k's slice of pool p starts; off(p, n) is the
// pool's length. A pool without an offset table is split evenly, the
// first len%n shards taking one extra sample: shard k starts at
// k·per + min(k, rem).
func (lp *LazyPartition) off(p, k int) int {
	if o := lp.offsets[p]; o != nil {
		return int(o[k])
	}
	size := len(lp.pools[p])
	per, rem := size/lp.n, size%lp.n
	return k*per + min(k, rem)
}

// baseLen returns shard k's length before rebalancing.
func (lp *LazyPartition) baseLen(k int) int {
	l := 0
	for p := range lp.pools {
		l += lp.off(p, k+1) - lp.off(p, k)
	}
	return l
}

// ShardLen returns shard k's size without materializing it.
func (lp *LazyPartition) ShardLen(k int) int {
	l := lp.baseLen(k)
	if lp.donated != nil {
		l -= int(lp.donated[k])
		if lp.received[k] >= 0 {
			l++
		}
	}
	return l
}

// Shard materializes client k's index shard. The caller owns the returned
// slice.
func (lp *LazyPartition) Shard(k int) []int {
	out := make([]int, 0, max(lp.baseLen(k), 1))
	for p, pool := range lp.pools {
		for _, v := range pool[lp.off(p, k):lp.off(p, k+1)] {
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
	if lp.n == 0 {
		return 0, 0, 0
	}
	minLen = math.MaxInt
	total := 0
	for k := range lp.n {
		l := lp.ShardLen(k)
		minLen = min(minLen, l)
		maxLen = max(maxLen, l)
		total += l
	}
	return minLen, maxLen, float64(total) / float64(lp.n)
}

// elementAt returns shard k's base element at position pos (pool
// concatenation order, before rebalancing edits).
func (lp *LazyPartition) elementAt(k, pos int) int32 {
	for p, pool := range lp.pools {
		start, end := lp.off(p, k), lp.off(p, k+1)
		if pos < end-start {
			return pool[start+pos]
		}
		pos -= end - start
	}
	panic("data: lazy partition rebalance position out of range")
}

// rebalance gives every empty shard one sample, so every client can train:
// the lowest-indexed largest shard donates its current last element to each
// empty shard in index order, recorded as (donated count, received sample)
// edits on the offset tables instead of slice mutations.
func (lp *LazyPartition) rebalance() {
	lens := make([]int32, lp.n)
	empty := false
	for k := range lens {
		lens[k] = int32(lp.baseLen(k))
		empty = empty || lens[k] == 0
	}
	if !empty {
		return
	}
	lp.donated = make([]int32, lp.n)
	lp.received = make([]int32, lp.n)
	for i := range lp.received {
		lp.received[i] = -1
	}
	for i := range lens {
		if lens[i] > 0 {
			continue
		}
		donor, best := -1, int32(1)
		for j, l := range lens {
			if l > best {
				donor, best = j, l
			}
		}
		if donor < 0 {
			continue // nothing to donate; caller guaranteed len ≥ n, unreachable
		}
		pos := lp.baseLen(donor) - 1 - int(lp.donated[donor])
		lp.received[i] = lp.elementAt(donor, pos)
		lp.donated[donor]++
		lens[donor]--
		lens[i] = 1
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
