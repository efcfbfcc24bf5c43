package data

import (
	oldrand "math/rand"
	rand "math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

// permPrefixMatches reports whether PermPrefix(n, m) equals rng.Perm(n)
// truncated to m clamped into [0, n], and whether both leave their rng at
// the same next draw.
func permPrefixMatches(t *testing.T, seed uint64, n, m int) bool {
	t.Helper()
	got, want := rand.New(rand.NewPCG(seed, 1)), rand.New(rand.NewPCG(seed, 1))
	prefix := PermPrefix(got, n, m)
	ref := want.Perm(n)[:max(0, min(m, n))]
	if !slices.Equal(prefix, ref) {
		t.Errorf("PermPrefix(seed %d, n %d, m %d) = %v, want %v", seed, n, m, prefix, ref)
		return false
	}
	if len(prefix) != cap(prefix) {
		t.Errorf("PermPrefix(n %d, m %d) has cap %d, want %d", n, m, cap(prefix), len(prefix))
		return false
	}
	if g, w := got.Uint64(), want.Uint64(); g != w {
		t.Errorf("PermPrefix(seed %d, n %d, m %d) left the rng at %d, Perm at %d", seed, n, m, g, w)
		return false
	}
	return true
}

// TestPermPrefixMatchesPerm: PermPrefix is a drop-in for rng.Perm(n)[:m],
// element for element and rng state for rng state, over n in [0, 4096] and
// m in [−1, n+1], every (n, m) pair for tiny n, and the cross-device shape.
func TestPermPrefixMatchesPerm(t *testing.T) {
	for n := 0; n <= 4; n++ {
		for m := -1; m <= n+1; m++ {
			permPrefixMatches(t, uint64(7*n+m+1), n, m)
		}
	}
	prop := func(seed uint64, nRaw, mRaw uint16) bool {
		n := int(nRaw) % 4097
		m := int(mRaw)%(n+3) - 1
		return permPrefixMatches(t, seed, n, m)
	}
	cfg := &quick.Config{MaxCount: 400, Rand: oldrand.New(oldrand.NewSource(16))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
	permPrefixMatches(t, 42, 1_000_000, 1024)
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
