package fl

import (
	"math"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// quadParam builds a single scalar parameter for minimizing f(w) = ½w².
func quadParam(w0 float64) *nn.Param {
	return &nn.Param{
		Name: "w",
		W:    tensor.MustFromSlice([]float64{w0}, 1),
		G:    tensor.New(1),
	}
}

// stepQuad sets g = w (gradient of ½w²) and applies one Adam step.
func stepQuad(o *adam, p *nn.Param) {
	p.G.Data()[0] = p.W.Data()[0]
	o.Step([]*nn.Param{p})
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := quadParam(10)
	o := newAdam(0.5, 0)
	for i := 0; i < 300; i++ {
		stepQuad(o, p)
	}
	if w := math.Abs(p.W.Data()[0]); w > 1e-3 {
		t.Errorf("Adam did not converge: |w| = %g", w)
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the very first Adam step has magnitude ≈ lr.
	p := quadParam(10)
	o := newAdam(0.1, 0)
	stepQuad(o, p)
	if d := math.Abs(10 - p.W.Data()[0]); math.Abs(d-0.1) > 1e-6 {
		t.Errorf("first Adam step size = %g, want ≈ 0.1", d)
	}
}

func TestAdamStatePerParam(t *testing.T) {
	// Two parameters with different gradient scales must keep separate
	// moment estimates.
	p1, p2 := quadParam(1), quadParam(1000)
	o := newAdam(0.1, 0)
	p1.G.Data()[0] = p1.W.Data()[0]
	p2.G.Data()[0] = p2.W.Data()[0]
	o.Step([]*nn.Param{p1, p2})
	// Adam's first step is gradient-scale invariant: both parameters move
	// by ≈ lr despite gradients differing by 1000×.
	d1 := 1 - p1.W.Data()[0]
	d2 := 1000 - p2.W.Data()[0]
	if math.Abs(d1-d2) > 1e-6 {
		t.Errorf("Adam first steps differ across scales: %g vs %g", d1, d2)
	}
}

// TestAdamTrainingEndToEnd trains a tiny network on a linearly separable
// problem and requires convergence.
func TestAdamTrainingEndToEnd(t *testing.T) {
	rng := nn.RandSource(13, 17)
	net := nn.NewSequential(
		nn.NewLinear("fc1", 2, 8, rng),
		nn.NewReLU("relu"),
		nn.NewLinear("fc2", 8, 2, rng),
	)
	o := newAdam(0.05, 0)
	// XOR-ish separable data.
	x := tensor.MustFromSlice([]float64{
		0.9, 0.8,
		-0.7, -0.9,
		0.8, -0.85,
		-0.9, 0.75,
	}, 4, 2)
	labels := []int{0, 0, 1, 1}
	var loss float64
	for i := 0; i < 400; i++ {
		net.ZeroGrad()
		out := net.Forward(x, true)
		var g *tensor.Tensor
		loss, g = nn.SoftmaxCrossEntropy(out, labels)
		net.Backward(g)
		o.Step(net.Params())
	}
	if loss > 0.05 {
		t.Errorf("final loss %g, want < 0.05", loss)
	}
}
