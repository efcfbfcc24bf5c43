package data

import "testing"

// FuzzPermPrefix: for any (n, m, seed), PermPrefix never panics and returns
// m clamped into [0, n] distinct indices of [0, n), with the draw count,
// reproducibility and reference agreement permPrefixError checks. Run
// beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzPermPrefix -fuzztime 10s ./internal/data
func FuzzPermPrefix(f *testing.F) {
	for _, c := range []struct {
		n uint32
		m int32
	}{{0, 0}, {0, -1}, {1, 1}, {1, 2}, {7, 3}, {13, 3}, {64, 15}, {64, 16}, {1 << 16, 1024}, {5, -1 << 31}} {
		f.Add(c.n, c.m, uint64(1))
	}
	f.Fuzz(func(t *testing.T, nRaw uint32, mRaw int32, seed uint64) {
		n, m := int(nRaw%(1<<16+1)), int(mRaw)
		if err := permPrefixError(seed, n, m); err != nil {
			t.Fatalf("PermPrefix(seed %d, n %d, m %d): %v", seed, n, m, err)
		}
	})
}
