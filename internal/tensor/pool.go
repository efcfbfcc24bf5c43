package tensor

import (
	"math/bits"
	"sync"
	"unsafe"

	"github.com/oasisfl/oasis/internal/obs"
)

// The workspace arena: size-bucketed sync.Pools of float64 slices. Hot-path
// code (conv lowering workspaces, per-round gradient scratch) allocates
// tensors whose lifetime it fully controls from here via NewPooled and hands
// the backing array back with Release, so per-round allocation volume stops
// scaling with batch·OH·OW and the garbage collector sees a near-constant
// live set at 1000-client populations.
//
// Bucket b holds arrays with capacity 2^b ≤ cap < 2^(b+1); a Get views a
// recycled array as 2^b floats, reslices it to the requested length and
// zeroes it, so a pooled tensor is indistinguishable from a New one. Clones
// skip the zero fill, since the copy overwrites every element anyway.

// minPoolBucket is the smallest pooled capacity class (2^6 floats = 512 B).
// A client step of the cross-device MLP makes about a dozen tensors of 10
// to 2048 floats: activations, their gradients, logits, parameter gradients.
// Floors from 2^4 to 2^9 were measured on the benchmark's cross-device
// workload. 2^6 ran fastest; 2^4 and 2^5 also pool the tensors under 64
// floats and allocate 9% fewer bytes, but ran about 3% slower, and 2^8 and
// 2^9 ran 10-15% slower.
const minPoolBucket = 6

// bufPools[b] holds arrays of capacity at least 2^b, each stored as a
// pointer to its first element: a pointer fits in the interface word
// sync.Pool takes, where a slice header would be boxed on every Put.
var bufPools [64]sync.Pool

// Arena observability: hit rate (hits / (hits+misses)) is the number that
// tells whether pooling is actually absorbing a workload's allocation
// volume. Counters self-gate on the obs session (one atomic load when
// disabled), so they are safe on this hot path. Requests under 2^6 floats
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
		return unsafe.Slice(v.(*float64), 1<<b)[:n], true
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
	bufPools[b].Put(unsafe.SliceData(s))
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
// reads any. Kernels that overwrite their whole output (MatMulTransA,
// MatMulTransB), ClonePooled, and gradients formed by a store before they
// are read (nn.NewLinearFrom) use it to skip a pass over the tensor.
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
