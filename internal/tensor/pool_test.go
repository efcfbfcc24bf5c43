package tensor

import "testing"

// TestPooledGetsOverDirtyArrays pins the arena's two get flavours over a
// recycled array full of stale values: ClonePooled skips the zero fill but
// its copy overwrites every element, and NewPooled still comes back zeroed.
func TestPooledGetsOverDirtyArrays(t *testing.T) {
	const n = 3000 // pool-eligible, with stale capacity past n in its bucket
	dirty := func() {
		d := NewPooled(4096)
		for i := range d.Data() {
			d.Data()[i] = -7
		}
		d.Release()
	}
	src := New(n)
	for i := range src.Data() {
		src.Data()[i] = float64(i)
	}
	for round := 0; round < 4; round++ {
		dirty()
		c := src.ClonePooled()
		if c.Len() != n {
			t.Fatalf("clone length %d, want %d", c.Len(), n)
		}
		for i, v := range c.Data() {
			if v != float64(i) {
				t.Fatalf("clone[%d] = %v, want %v", i, v, float64(i))
			}
		}
		c.Release()
		dirty()
		z := NewPooled(n)
		for i, v := range z.Data() {
			if v != 0 {
				t.Fatalf("NewPooled[%d] = %v over a recycled array, want 0", i, v)
			}
		}
		z.Release()
	}
}
