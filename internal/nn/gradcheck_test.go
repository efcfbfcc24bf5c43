package nn

import (
	"testing"

	"github.com/oasisfl/oasis/internal/tensor"
)

// The gradient checks below are the correctness anchor for the whole
// repository: the attacks invert analytic gradients, so every layer's
// backward pass is verified against central finite differences.

func checkNet(t *testing.T, net *Sequential, x *tensor.Tensor, labels []int) {
	t.Helper()
	res, err := CheckGradients(net, x, labels, 1e-5)
	if err != nil {
		t.Fatalf("gradient check failed: %v", err)
	}
	if res.MaxRelErr > 1e-4 {
		t.Fatalf("max relative error %.3e at %s[%d]", res.MaxRelErr, res.Param, res.Index)
	}
}

func randInput(rng interface{ NormFloat64() float64 }, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64() * 0.7
	}
	return x
}

func TestGradLinear(t *testing.T) {
	rng := RandSource(1, 1)
	net := NewSequential(NewLinear("fc", 6, 4, rng))
	checkNet(t, net, randInput(rng, 3, 6), []int{0, 2, 3})
}

func TestGradLinearReLUStack(t *testing.T) {
	rng := RandSource(2, 1)
	net := NewSequential(
		NewLinear("fc1", 5, 8, rng),
		NewReLU("relu1"),
		NewLinear("fc2", 8, 3, rng),
	)
	checkNet(t, net, randInput(rng, 4, 5), []int{0, 1, 2, 1})
}

func TestGradConv2D(t *testing.T) {
	rng := RandSource(3, 1)
	net := NewSequential(
		NewConv2D("conv", 2, 3, 3, 1, 1, rng),
		NewFlatten("flat"),
		NewLinear("fc", 3*5*5, 3, rng),
	)
	checkNet(t, net, randInput(rng, 2, 2, 5, 5), []int{0, 2})
}

func TestGradConvStride2NoPad(t *testing.T) {
	rng := RandSource(4, 1)
	net := NewSequential(
		NewConv2D("conv", 1, 2, 3, 2, 0, rng),
		NewFlatten("flat"),
		NewLinear("fc", 2*2*2, 2, rng),
	)
	checkNet(t, net, randInput(rng, 2, 1, 5, 5), []int{1, 0})
}

func TestGradBatchNorm(t *testing.T) {
	rng := RandSource(5, 1)
	net := NewSequential(
		NewConv2D("conv", 1, 3, 3, 1, 1, rng),
		NewBatchNorm2D("bn", 3),
		NewReLU("relu"),
		NewFlatten("flat"),
		NewLinear("fc", 3*4*4, 2, rng),
	)
	// Batch statistics couple every input element into the normalization;
	// this exercises the full BN backward including the statistic terms.
	checkNet(t, net, randInput(rng, 3, 1, 4, 4), []int{0, 1, 1})
}

func TestGradGlobalAvgPool(t *testing.T) {
	rng := RandSource(7, 1)
	net := NewSequential(
		NewConv2D("conv", 2, 4, 3, 1, 1, rng),
		NewGlobalAvgPool("gap"),
		NewLinear("fc", 4, 3, rng),
	)
	checkNet(t, net, randInput(rng, 2, 2, 5, 5), []int{2, 0})
}

func TestGradResidualIdentity(t *testing.T) {
	rng := RandSource(8, 1)
	net := NewSequential(
		NewConv2D("stem", 1, 2, 3, 1, 1, rng),
		NewResidual("block",
			NewConv2D("block.conv", 2, 2, 3, 1, 1, rng),
			NewReLU("block.relu"),
		),
		NewFlatten("flat"),
		NewLinear("fc", 2*4*4, 2, rng),
	)
	checkNet(t, net, randInput(rng, 2, 1, 4, 4), []int{0, 1})
}

func TestGradResidualProjection(t *testing.T) {
	rng := RandSource(9, 1)
	net := NewSequential(
		NewResidualProj("block",
			NewConv2D("proj", 1, 2, 1, 1, 0, rng),
			NewConv2D("block.conv", 1, 2, 3, 1, 1, rng),
		),
		NewFlatten("flat"),
		NewLinear("fc", 2*4*4, 2, rng),
	)
	checkNet(t, net, randInput(rng, 2, 1, 4, 4), []int{1, 0})
}

func TestGradMaliciousVictimShape(t *testing.T) {
	// The exact layer arrangement the attacks plant: wide FC + ReLU + head.
	rng := RandSource(11, 1)
	net := NewSequential(
		NewLinear("malicious", 12, 20, rng),
		NewReLU("malicious.relu"),
		NewLinear("head", 20, 4, rng),
	)
	checkNet(t, net, randInput(rng, 5, 12), []int{0, 1, 2, 3, 0})
}
