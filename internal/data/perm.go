package data

import rand "math/rand/v2"

// PermPrefix returns a uniformly random ordered m-sample of [0, n), the first
// m entries of a random permutation, in exactly m rng.IntN calls whatever n
// is. m is clamped to [0, n]; the result has length and capacity m.
//
// It runs Fisher–Yates from the bottom and stops after m steps: step i draws
// j = i + rng.IntN(n−i) and swaps positions i and j, after which position i
// is final. When m is small against n, the positions a swap displaced live
// in a map that is only indexed, never ranged, so drawing 1,024 clients of a
// million keeps at most 1,024 entries; otherwise an n-entry array is cheaper.
// Both give the same sample for the same rng.
//
// Its callers are the draws that keep a prefix of a permutation once per
// round or once per run: fl.UniformSampler's cohort, and the attack
// calibrations' probe subsets and LOKI's pixel masks. The per-step draws
// over a client's shard (RandomBatch, Split) stay on rng.Perm.
func PermPrefix(rng *rand.Rand, n, m int) []int {
	m = max(0, min(m, n))
	out := make([]int, m)
	if m >= n/4 {
		p := out
		if m < n {
			p = make([]int, n)
		}
		for i := range p {
			p[i] = i
		}
		for i := range m {
			j := i + rng.IntN(n-i)
			p[i], p[j] = p[j], p[i]
		}
		copy(out, p)
		return out
	}
	moved := make(map[int]int, m)
	at := func(k int) int {
		if v, ok := moved[k]; ok {
			return v
		}
		return k
	}
	for i := range out {
		j := i + rng.IntN(n-i)
		out[i] = at(j)
		moved[j] = at(i)
	}
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
