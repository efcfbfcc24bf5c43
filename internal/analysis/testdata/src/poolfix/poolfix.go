// Package poolfix exercises poolpair: arena tensors must reach Release on
// every path or visibly transfer ownership.
package poolfix

import "github.com/oasisfl/oasis/internal/tensor"

func consume(t *tensor.Tensor) {}

// okDefer releases via defer; every path is covered.
func okDefer(n int) float64 {
	t := tensor.NewPooled(n)
	defer t.Release()
	return t.Sum()
}

// okStraightLine releases on the only path.
func okStraightLine(n int) float64 {
	t := tensor.NewPooled(n)
	s := t.Sum()
	t.Release()
	return s
}

// okBothBranches releases on each branch before returning.
func okBothBranches(n int) float64 {
	t := tensor.NewPooled(n)
	if n > 3 {
		t.Release()
		return 0
	}
	s := t.Sum()
	t.Release()
	return s
}

// okTransferReturn hands ownership to the caller.
func okTransferReturn(n int) *tensor.Tensor {
	t := tensor.NewPooled(n)
	t.Scale(2)
	return t
}

// okTransferArg hands ownership to another function.
func okTransferArg(n int) {
	t := tensor.NewPooled(n)
	consume(t)
}

// okDeferHelper releases inside a deferred function literal — the
// "deferred Release in helper" false-positive guard.
func okDeferHelper(n int) float64 {
	t := tensor.NewPooled(n)
	defer func() { t.Release() }()
	return t.Sum()
}

func badNeverReleased(n int) float64 {
	t := tensor.NewPooled(n) // want `pooled tensor "t" from tensor.NewPooled never reaches Release`
	return t.Sum()
}

func badEarlyReturn(n int) float64 {
	t := tensor.NewPooled(n) // want `does not reach Release on every path`
	if n > 3 {
		return 0
	}
	s := t.Sum()
	t.Release()
	return s
}

func badDiscard(n int) {
	tensor.NewPooled(n) // want `pooled tensor from tensor.NewPooled is discarded`
}

func badRaw(n int) float64 {
	t := tensor.NewPooledRaw(n) // want `pooled tensor "t" from tensor.NewPooledRaw never reaches Release`
	return t.Sum()
}

func badClone(src *tensor.Tensor) float64 {
	c := src.ClonePooled() // want `pooled tensor "c" from src.ClonePooled never reaches Release`
	return c.Sum()
}

func allowDirective(n int) float64 {
	t := tensor.NewPooled(n) //oasis:allow-poolpair ownership documented elsewhere
	return t.Sum()
}
