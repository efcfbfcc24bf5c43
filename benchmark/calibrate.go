package main

import (
	"math"
	rand "math/rand/v2"
	"runtime"
	"slices"
	"sync"
)

// The machine this benchmark runs on may be shared: on a 2-vCPU KVM guest,
// the CPU time a fixed piece of work took drifted by up to 60% over minutes
// as other guests loaded the host. A calibration before and after every
// timed run measures that drift with a fixed mix of work that uses only the
// Go runtime and standard library, so that no change to the program can
// move it. Each timed run's CPU times are then scaled to the speed at which
// the mix takes refCalibrationCPU seconds.

// refCalibrationCPU is the geometric-mean CPU time of the calibration
// kernels at the reference speed: their median on that guest, an Intel Xeon
// at 2.1 GHz. It sets the scale of the reported timings, not their spread.
const refCalibrationCPU = 0.16

// calibrationKernels are work of the kinds the workloads do, each sized to
// take about a tenth of a CPU second per core.
var calibrationKernels = []func() float64{
	floatKernel,  // dense multiply-adds, like the tensor kernels
	allocKernel,  // small allocations, pointer walks and GC, like the engine's bookkeeping
	streamKernel, // a pass over a large slice, for memory bandwidth
	sortKernel,   // sorting and map inserts, for branchy integer work
}

// calibrate runs every kernel on two goroutines, loading both cores as the
// workloads do, and returns the geometric mean of their CPU times in seconds.
func calibrate() float64 {
	logSum := 0.0
	for _, kernel := range calibrationKernels {
		runtime.GC()
		start := cpuTime()
		sinks := make([]float64, 2)
		var wg sync.WaitGroup
		for g := range sinks {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sinks[g] = kernel()
			}()
		}
		wg.Wait()
		logSum += math.Log((cpuTime() - start).Seconds())
	}
	return math.Exp(logSum / float64(len(calibrationKernels)))
}

func floatKernel() float64 {
	const n = 96
	a, b, c := make([]float64, n*n), make([]float64, n*n), make([]float64, n*n)
	for i := range a {
		a[i], b[i] = float64(i%13), float64(i%7)
	}
	for range 150 {
		for i := 0; i < n; i++ {
			for k := 0; k < n; k++ {
				aik := a[i*n+k]
				for j := 0; j < n; j++ {
					c[i*n+j] += aik * b[k*n+j]
				}
			}
		}
	}
	return c[n+1]
}

type treeNode struct {
	left, right *treeNode
	value       float64
}

func buildTree(depth int) *treeNode {
	if depth == 0 {
		return &treeNode{value: 1}
	}
	return &treeNode{left: buildTree(depth - 1), right: buildTree(depth - 1), value: float64(depth)}
}

func (t *treeNode) sum() float64 {
	if t == nil {
		return 0
	}
	return t.value + t.left.sum() + t.right.sum()
}

func allocKernel() float64 {
	total := 0.0
	for range 24 {
		total += buildTree(15).sum()
	}
	return total
}

func streamKernel() float64 {
	xs := make([]float64, 4<<20)
	total := 0.0
	for pass := range 12 {
		for i := range xs {
			xs[i] += float64(i & 7)
		}
		total += xs[pass*1000]
	}
	return total
}

func sortKernel() float64 {
	rng := rand.New(rand.NewPCG(1, 2))
	xs := make([]float64, 600_000)
	m := make(map[int]float64)
	for i := range xs {
		xs[i] = rng.Float64()
		if i%4 == 0 {
			m[i] = xs[i]
		}
	}
	slices.Sort(xs)
	return xs[100] + float64(len(m))
}
