package tensor

import (
	"math/bits"
	"sync"

	"github.com/oasisfl/oasis/internal/obs"
)

// The workspace arena: size-bucketed sync.Pools of float64 slices. Hot-path
// code (conv lowering workspaces, per-round gradient scratch) allocates
// tensors whose lifetime it fully controls from here via NewPooled and hands
// the backing array back with Release, so per-round allocation volume stops
// scaling with batch·OH·OW and the garbage collector sees a near-constant
// live set at 1000-client populations.
//
// Buckets hold slices with capacity 2^b ≤ cap < 2^(b+1); a Get reslices a
// recycled array to the requested length and zeroes it, so a pooled tensor is
// indistinguishable from a New one. Clones skip the zero fill, since the copy
// overwrites every element anyway.

// minPoolBucket is the smallest pooled capacity class (2^10 floats = 8 KiB);
// smaller buffers are cheaper to allocate than to pool.
const minPoolBucket = 10

var bufPools [64]sync.Pool

// Arena observability: hit rate (hits / (hits+misses)) is the number that
// tells whether pooling is actually absorbing a workload's allocation
// volume. Counters self-gate on the obs session (one atomic load when
// disabled), so they are safe on this hot path. Sub-bucket requests (< 8 KiB)
// are never pooled and are not counted.
var (
	obsPoolHit     = obs.NewCounter("tensor_pool_hit_total", "arena Gets served from a recycled array")
	obsPoolMiss    = obs.NewCounter("tensor_pool_miss_total", "pool-eligible arena Gets that had to allocate")
	obsPoolRelease = obs.NewCounter("tensor_pool_release_total", "arrays returned to the arena")
)

// getBuf returns a zeroed []float64 of length n, reusing a pooled array when
// one is available.
func getBuf(n int) []float64 {
	s, recycled := getRawBuf(n)
	if recycled {
		clear(s)
	}
	return s
}

// getRawBuf is getBuf without the zero fill: a recycled array keeps its stale
// contents, so the caller must overwrite all n elements. recycled reports
// whether the array came from the arena (a freshly allocated one is zero).
func getRawBuf(n int) (s []float64, recycled bool) {
	if n == 0 {
		return nil, false
	}
	b := bits.Len(uint(n - 1)) // bucket whose arrays have cap ≥ n
	if b < minPoolBucket {
		return make([]float64, n), false // never pooled, so sized exactly
	}
	if v := bufPools[b].Get(); v != nil {
		obsPoolHit.Inc()
		return v.([]float64)[:n], true
	}
	obsPoolMiss.Inc()
	return make([]float64, n, 1<<b), false
}

// putBuf recycles a buffer into its size bucket. The caller must not retain
// any reference (including subslices or Reshape views) to s afterwards.
func putBuf(s []float64) {
	c := cap(s)
	if c < 1<<minPoolBucket {
		return
	}
	b := bits.Len(uint(c)) - 1 // bucket whose arrays have cap ≥ 2^b
	obsPoolRelease.Inc()
	bufPools[b].Put(s[:0:c])
}

// NewPooled returns a zero-filled tensor like New, drawing the backing array
// from the workspace arena. The caller owns the tensor's lifetime and should
// hand the array back with Release once no reference to it remains; a pooled
// tensor that is never released is simply collected like any other.
func NewPooled(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{shape: append([]int(nil), shape...), data: getBuf(n)}
}

// NewPooledRaw is NewPooled without the zero fill: a recycled backing array
// keeps its stale contents, so the caller must write every element before it
// reads any. Kernels that overwrite their whole output (MatMulTransA) and
// gradients formed by a store before they are read (nn.NewLinearFrom) use it
// to skip a pass over the tensor.
func NewPooledRaw(shape ...int) *Tensor {
	n := checkShape(shape)
	data, _ := getRawBuf(n)
	return &Tensor{shape: append([]int(nil), shape...), data: data}
}

// ClonePooled returns a deep copy like Clone, with the backing array drawn
// from the workspace arena. Use it for copies whose lifetime the caller
// controls (upload payloads, per-round snapshots) so they can be handed back
// with Release instead of feeding the collector.
func (t *Tensor) ClonePooled() *Tensor {
	data, _ := getRawBuf(len(t.data))
	copy(data, t.data)
	return &Tensor{shape: append([]int(nil), t.shape...), data: data}
}

// Release returns t's backing array to the workspace arena and clears t so
// any later use panics instead of aliasing recycled memory. It must only be
// called by the tensor's owner, and only when no view of the data (Reshape,
// RowView, Data) is still live. Releasing a nil or already-released tensor is
// a no-op, so cleanup paths need no guards.
func (t *Tensor) Release() {
	if t == nil || t.data == nil {
		return
	}
	putBuf(t.data)
	t.data = nil
	t.shape = nil
}
