package data

import (
	"math"
	rand "math/rand/v2"
	"sync"
)

// permScratch recycles PermPrefix's working arrays (*[]int32), so drawing a
// cohort from a million clients every round reuses one 4 MB buffer instead
// of allocating an 8 MB []int per call. A Get keeps a buffer only when it
// holds n entries, so the pool serves the largest n it is asked for.
var permScratch sync.Pool

// PermPrefix returns rng.Perm(n)[:m] and leaves rng in the state rng.Perm(n)
// leaves it: the same n−1 draws, in the same order. m is clamped to [0, n].
//
// Perm runs Fisher–Yates from the top: step i draws j = rng.IntN(i+1) and
// swaps p[i] with p[j], after which p[i] is final. Only p[:m] is returned,
// so for i ≥ m the write to p[i] is dead and the step reduces to
// p[j] = p[i]. The call costs n−1 rng draws over a pooled int32 scratch and
// allocates only its m-element result.
//
// Its callers are the draws that keep a prefix of a permutation once per
// round or once per run: fl.UniformSampler's cohort,
// sim's defended and straggler memberships, and the attack calibrations'
// probe subsets and LOKI's pixel masks. The per-step draws over a client's
// shard (RandomBatch, Split) stay on rng.Perm: the scratch is sized by the
// largest n the pool has served, so a small buffer that a concurrent
// client put back would make the next million-client cohort draw allocate
// its 4 MB scratch again.
func PermPrefix(rng *rand.Rand, n, m int) []int {
	m = max(0, min(m, n))
	if m == n || n > math.MaxInt32 {
		return rng.Perm(n)[:m:m]
	}
	buf, _ := permScratch.Get().(*[]int32)
	if buf == nil || cap(*buf) < n {
		buf = new([]int32)
		*buf = make([]int32, n)
	}
	p := (*buf)[:n]
	for i := range p {
		p[i] = int32(i)
	}
	i := n - 1
	for ; i >= max(m, 1); i-- {
		p[rng.IntN(i+1)] = p[i]
	}
	for ; i > 0; i-- {
		j := rng.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	out := make([]int, m)
	for k := range out {
		out[k] = int(p[k])
	}
	permScratch.Put(buf)
	return out
}

// shuffledIndices returns rng.Perm(n) as int32, for compact pool storage.
// It runs the Fisher–Yates loop of the Shuffle call Perm makes, with the
// same rng.IntN draw per step, so the draws are identical; it never holds
// the n-entry []int and makes no swap-closure call per element.
func shuffledIndices(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := rng.IntN(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
