package tensor

// useAVX2 selects the AVX2 kernels in simd_amd64.s: set once at start-up when
// the CPU has AVX2 and the OS saves YMM state across context switches. Tests
// clear it to run the pure-Go kernels on AVX2 hardware; nothing else writes it.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 checks CPUID leaf 7 for AVX2, leaf 1 for AVX and OSXSAVE, and
// XCR0 for the XMM and YMM state bits the OS must save.
func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	const xmmYmmState = 1<<1 | 1<<2
	if xcr0, _ := xgetbv(); xcr0&xmmYmmState != xmmYmmState {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

// The kernels behind axpy, axpy4, axpy4z, dot2x4 and addTo take lengths that
// are multiples of 4 and read every operand up to that length unchecked; the
// Go wrappers in matmul.go reslice each operand first. //go:noescape keeps
// the wrappers' operands, dot2x4's [32]float64 accumulator block among them,
// on the stack: without it every call would heap-allocate that block.

//go:noescape
func axpyAVX2(y []float64, a float64, x []float64)

//go:noescape
func axpy4AVX2(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)

//go:noescape
func axpy4zAVX2(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)

//go:noescape
func dot2x4AVX2(acc *[32]float64, a0, a1, b0, b1, b2, b3 []float64)

//go:noescape
func addAVX2(y, x []float64)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)
