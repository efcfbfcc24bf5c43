package nn

import (
	"fmt"
	"math"

	"github.com/oasisfl/oasis/internal/tensor"
)

// GradCheckResult reports the worst relative error found by CheckGradients.
type GradCheckResult struct {
	MaxRelErr float64
	Param     string // parameter (or "input") where the worst error occurred
	Index     int
}

// CheckGradients compares the analytic gradients of net's softmax
// cross-entropy on (x, labels) against central finite differences with step
// eps. It checks every parameter and the input gradient, returning the
// worst relative error.
//
// This is the correctness anchor of the whole substrate: the inversion
// attacks are only meaningful if the gradients they invert are exact.
func CheckGradients(net *Sequential, x *tensor.Tensor, labels []int, eps float64) (GradCheckResult, error) {
	// Evaluate in training mode: layers like batch norm compute the loss
	// from batch statistics there, which is the function the analytic
	// backward pass differentiates. (Training-mode side effects — caches,
	// running-stat updates — do not influence the returned loss.)
	eval := func() float64 {
		out := net.Forward(x, true)
		l, _ := SoftmaxCrossEntropy(out, labels)
		return l
	}
	// Analytic pass.
	net.ZeroGrad()
	out := net.Forward(x, true)
	_, gx := SoftmaxCrossEntropy(out, labels)
	// Sequential.Backward skips the input gradient, so walk the full
	// per-layer chain to get it.
	for i := len(net.Layers) - 1; i >= 0; i-- {
		gx = net.Layers[i].Backward(gx)
	}

	worst := GradCheckResult{}
	check := func(name string, values, grads []float64) {
		for i := range values {
			orig := values[i]
			values[i] = orig + eps
			lp := eval()
			values[i] = orig - eps
			lm := eval()
			values[i] = orig
			num := (lp - lm) / (2 * eps)
			// The 1e-6 floor absorbs directions whose true gradient is
			// exactly zero (e.g. a conv bias feeding batch norm, which
			// cancels additive constants): there the finite difference is
			// pure truncation noise of order eps²·f'''.
			den := math.Max(math.Abs(num)+math.Abs(grads[i]), 1e-6)
			rel := math.Abs(num-grads[i]) / den
			if rel > worst.MaxRelErr {
				worst = GradCheckResult{MaxRelErr: rel, Param: name, Index: i}
			}
		}
	}
	for _, p := range net.Params() {
		check(p.Name, p.W.Data(), p.G.Data())
	}
	check("input", x.Data(), gx.Data())
	if worst.MaxRelErr > 1e-4 {
		return worst, fmt.Errorf("nn: gradient check failed: rel err %.3e at %s[%d]", worst.MaxRelErr, worst.Param, worst.Index)
	}
	return worst, nil
}
