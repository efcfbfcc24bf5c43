package data

import (
	"fmt"
	oldrand "math/rand"
	rand "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// countingSource counts the Uint64 calls a draw makes on its rand.Rand.
type countingSource struct {
	rand.Source
	calls int
}

func (c *countingSource) Uint64() uint64 {
	c.calls++
	return c.Source.Uint64()
}

// permPrefixRef is forward Fisher–Yates over a full n-entry array, stopped
// after m steps: the draw PermPrefix makes, without its sparse bookkeeping.
func permPrefixRef(rng *rand.Rand, n, m int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := range m {
		j := i + rng.IntN(n-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:m]
}

// permPrefixError checks one PermPrefix draw: len and cap are m clamped into
// [0, n], the entries are distinct and in [0, n), the draw makes m Uint64
// calls (one more is allowed for a rare Lemire rejection), equal seeds give
// equal draws, and the sample equals the full-array reference.
func permPrefixError(seed uint64, n, m int) error {
	want := max(0, min(m, n))
	src := &countingSource{Source: rand.NewPCG(seed, 1)}
	got := PermPrefix(rand.New(src), n, m)
	if len(got) != want || cap(got) != want {
		return fmt.Errorf("len %d cap %d, want %d", len(got), cap(got), want)
	}
	seen := make(map[int]bool, want)
	for _, v := range got {
		if v < 0 || v >= n || seen[v] {
			return fmt.Errorf("entry %d repeated or outside [0, %d)", v, n)
		}
		seen[v] = true
	}
	if src.calls < want || src.calls > want+1 {
		return fmt.Errorf("made %d Uint64 calls, want %d", src.calls, want)
	}
	if again := PermPrefix(rand.New(rand.NewPCG(seed, 1)), n, m); !slices.Equal(got, again) {
		return fmt.Errorf("same seed drew two samples, differing first at %d", firstDiff(got, again))
	}
	if ref := permPrefixRef(rand.New(rand.NewPCG(seed, 1)), n, want); !slices.Equal(got, ref) {
		return fmt.Errorf("differs from full-array Fisher–Yates first at position %d", firstDiff(got, ref))
	}
	return nil
}

// firstDiff returns the first position at which a and b differ.
func firstDiff(a, b []int) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// TestPermPrefixProperties: over n in [0, 4096] and m in [−1, n+1] (both the
// map and the array path), every (n, m) pair for tiny n, and the
// cross-device shape, a draw is m distinct in-range indices made in m rng
// calls, reproducible from its seed and equal to full-array Fisher–Yates.
func TestPermPrefixProperties(t *testing.T) {
	check := func(seed uint64, n, m int) bool {
		if err := permPrefixError(seed, n, m); err != nil {
			t.Errorf("PermPrefix(seed %d, n %d, m %d): %v", seed, n, m, err)
			return false
		}
		return true
	}
	for n := 0; n <= 9; n++ {
		for m := -1; m <= n+1; m++ {
			check(uint64(7*n+m+1), n, m)
		}
	}
	prop := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw) % 4097
		m := int(mRaw)%(n+3) - 1
		return check(seed, n, m)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: oldrand.New(oldrand.NewSource(16))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	check(42, 1_000_000, 1024)
}

// TestPermPrefixUniform is a chi-square test of a draw's distribution at
// n = 7, m = 3 (the array path) and n = 13, m = 3 (the map path): each
// index is included with probability m/n, and each of the m positions
// holds each value with probability 1/n. Each statistic is compared with
// the chi-square quantile at p = 0.001 for n−1 degrees of freedom; the
// inclusion counts are negatively correlated, which only shrinks their
// statistic.
func TestPermPrefixUniform(t *testing.T) {
	for _, tc := range []struct {
		n, m int
		crit float64
	}{{7, 3, 22.458}, {13, 3, 32.909}} {
		const trials = 26_000
		rng := rand.New(rand.NewPCG(uint64(tc.n), 0x51))
		included := make([]int, tc.n)
		at := make([][]int, tc.m)
		for k := range at {
			at[k] = make([]int, tc.n)
		}
		for range trials {
			for k, v := range PermPrefix(rng, tc.n, tc.m) {
				included[v]++
				at[k][v]++
			}
		}
		if chi := chiSquare(included, float64(trials*tc.m)/float64(tc.n)); chi > tc.crit {
			t.Errorf("n %d m %d: inclusion chi-square %.2f > %.2f: %v", tc.n, tc.m, chi, tc.crit, included)
		}
		for k, counts := range at {
			if chi := chiSquare(counts, float64(trials)/float64(tc.n)); chi > tc.crit {
				t.Errorf("n %d m %d: position %d chi-square %.2f > %.2f: %v", tc.n, tc.m, k, chi, tc.crit, counts)
			}
		}
	}
}

// chiSquare returns Σ (count − expected)² / expected.
func chiSquare(counts []int, expected float64) float64 {
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi += d * d / expected
	}
	return chi
}

// TestShuffledIndicesMatchesPerm: the partitioners' int32 pool is
// rng.Perm(n) narrowed, drawn with the same rng operations.
func TestShuffledIndicesMatchesPerm(t *testing.T) {
	for _, n := range []int{0, 1, 2, 17, 4096} {
		got, want := rand.New(rand.NewPCG(3, uint64(n))), rand.New(rand.NewPCG(3, uint64(n)))
		pool := shuffledIndices(got, n)
		if ref := toInt32(want.Perm(n)); !slices.Equal(pool, ref) {
			t.Errorf("shuffledIndices(%d) = %v, want %v", n, pool, ref)
		}
		if g, w := got.Uint64(), want.Uint64(); g != w {
			t.Errorf("shuffledIndices(%d) left the rng at %d, Perm at %d", n, g, w)
		}
	}
}
