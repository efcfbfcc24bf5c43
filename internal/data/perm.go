package data

import (
	"math"
	rand "math/rand/v2"
	"sync"
)

// permScratch recycles PermPrefix's working arrays (*[]int32), so drawing a
// cohort from a million clients every round reuses one 4 MB buffer instead
// of allocating an 8 MB []int per call.
var permScratch sync.Pool

// PermPrefix returns rng.Perm(n)[:m] and leaves rng in the state rng.Perm(n)
// leaves it: the same n−1 draws, in the same order. m is clamped to [0, n].
//
// Perm runs Fisher–Yates from the top: step i draws j = rng.IntN(i+1) and
// swaps p[i] with p[j], after which p[i] is final. Only p[:m] is returned,
// so for i ≥ m the write to p[i] is dead and the step reduces to
// p[j] = p[i]. The call costs n−1 rng draws over a pooled int32 scratch and
// allocates only its m-element result.
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
// It makes the same Shuffle call Perm makes, so the draws are identical, but
// never holds the n-entry []int.
func shuffledIndices(rng *rand.Rand, n int) []int32 {
	p := make([]int32, n)
	for i := range p {
		p[i] = int32(i)
	}
	rng.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
