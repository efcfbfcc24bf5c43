//go:build !amd64

package tensor

// useAVX2 is false off amd64, so the matmul wrappers never call the stubs
// below and every kernel runs its pure-Go loop.
var useAVX2 = false

func axpyAVX2(y []float64, a float64, x []float64) { panic("tensor: AVX2 kernel called off amd64") }

func axpy4AVX2(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func axpy4zAVX2(y []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func dot2x4AVX2(acc *[32]float64, a0, a1, b0, b1, b2, b3 []float64) {
	panic("tensor: AVX2 kernel called off amd64")
}

func addAVX2(y, x []float64) { panic("tensor: AVX2 kernel called off amd64") }
