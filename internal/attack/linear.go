package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// LinearInversion is the gradient-inversion attack on single-layer logistic
// models (paper §IV-D, following [18], [30]). The setting is restrictive:
// the model is one fully-connected layer trained with softmax cross-entropy
// and every image in a batch carries a unique label. The server inverts the
// gradient row of class k:
//
//	x̂_k = ∂L/∂W_k ÷ ∂L/∂b_k
//
// which is dominated by the single sample with label k. With OASIS the
// transformed copies share the class row by construction (a single layer has
// one "neuron" per class), so the inversion yields only the linear
// combination of an image and its transforms.
type LinearInversion struct {
	Dims    ImageDims
	Classes int
}

// NewLinearInversion constructs the attack for the given geometry.
func NewLinearInversion(dims ImageDims, classes int) *LinearInversion {
	return &LinearInversion{Dims: dims, Classes: classes}
}

// BuildModel returns the single-layer victim model with small random
// initialization, as an honest server would initialize logistic regression.
func (a *LinearInversion) BuildModel(rng *rand.Rand) *nn.Sequential {
	lin := nn.NewLinear("logistic", a.Dims.Dim(), a.Classes, rng)
	// Small weights keep early-training softmax outputs near uniform,
	// the regime analyzed in [30].
	lin.Weight.W.ScaleInPlace(0.01)
	return nn.NewSequential(lin)
}

// Gradients computes the model gradients a client would upload for batch b.
func (a *LinearInversion) Gradients(model *nn.Sequential, b *data.Batch) (gw, gb *tensor.Tensor, loss float64) {
	model.ZeroGrad()
	x := b.Flatten()
	loss = model.Backprop(x, b.Labels)
	x.Release()
	params := model.Params()
	return params[0].G.Clone(), params[1].G.Clone(), loss
}

// Reconstruct inverts each class row with a usable bias gradient.
func (a *LinearInversion) Reconstruct(gw, gb *tensor.Tensor) []*imaging.Image {
	if gw.Dim(0) != a.Classes || gb.Dim(0) != a.Classes {
		panic(fmt.Sprintf("attack: linear gradients %vx%v do not match %d classes", gw.Shape(), gb.Shape(), a.Classes))
	}
	var out []*imaging.Image
	gbd := gb.Data()
	for k := 0; k < a.Classes; k++ {
		if im, ok := ratioReconstruct(gw.RowView(k), gbd[k], a.Dims); ok {
			out = append(out, im)
		}
	}
	return out
}

// Run executes the attack end to end: model dispatch, client gradients on
// clientBatch, inversion, evaluation against originals (Figure 13 loop).
// Rows whose class had no sample in the batch invert to noise and naturally
// score near-zero PSNR; they are excluded, matching the paper's evaluation
// of reconstructed training images only.
func (a *LinearInversion) Run(clientBatch *data.Batch, originals []*imaging.Image, rng *rand.Rand) (Evaluation, []*imaging.Image, error) {
	model := a.BuildModel(rng)
	gw, gb, _ := a.Gradients(model, clientBatch)
	recons := a.Reconstruct(gw, gb)
	// Keep only rows for classes present in the client batch: absent
	// classes produce pure-noise inversions the attacker discards.
	present := make(map[int]bool, len(clientBatch.Labels))
	for _, y := range clientBatch.Labels {
		present[y] = true
	}
	var kept []*imaging.Image
	idx := 0
	gbd := gb.Data()
	for k := 0; k < a.Classes; k++ {
		if math.Abs(gbd[k]) < gradEps {
			continue
		}
		if present[k] {
			kept = append(kept, recons[idx])
		}
		idx++
	}
	return Evaluate(kept, originals), kept, nil
}
