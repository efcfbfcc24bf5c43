// Package nn is the deep-learning substrate of this repository: a layer
// graph with hand-written forward/backward passes over internal/tensor.
//
// The package exists because the gradient-inversion attacks reproduced here
// (RTF, CAH, single-layer inversion) operate on exact analytic gradients of
// model parameters; any correct backprop engine produces the same float64
// gradients, so a small dedicated engine is a faithful substitute for the
// PyTorch stack the paper used. Every layer is covered by numerical gradient
// checks in the test suite.
//
// Layers are stateful: Forward caches the activations Backward needs, so a
// single layer instance must not be shared across concurrent passes. Networks
// are cheap to clone for parallel workers via Sequential.Clone.
//
// Training backprop never computes the gradient with respect to the network
// input: nothing that trains a network reads it, and for the wide first layer
// the attacks plant it is the largest product in the backward pass.
// Sequential.Backward therefore runs only the parameter half of the first
// layer's backward pass when that layer is a Linear or Conv2D. CheckGradients,
// which does check the input gradient, walks the per-layer Backward chain
// itself.
//
// Every tensor a pass creates comes from the tensor arena and goes back to
// it once nothing needs it: Sequential releases each intermediate activation
// and gradient as soon as the next layer has consumed it, so a layer keeps
// nothing it returns or is given (see Layer). Backprop also releases the
// logits and the loss gradient; a caller of Forward releases the output
// once done with it.
package nn

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/tensor"
)

// Param is a named learnable parameter with its accumulated gradient.
type Param struct {
	Name string
	W    *tensor.Tensor // value
	G    *tensor.Tensor // gradient of the loss w.r.t. W, same shape
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is one differentiable stage of a network.
//
// Ownership: the tensor a Forward or Backward returns belongs to the caller,
// who may Release it into the tensor arena once done with it, so a layer
// must not keep a reference to its result, nor to its argument, which the
// caller may release as soon as the call returns. A layer keeps copies of
// whatever Backward reads. A layer may return its argument itself (the
// callers compare pointers), but never a view of it such as a Reshape.
type Layer interface {
	// Forward computes the layer output for x. When train is false the
	// layer may skip bookkeeping needed only by Backward (and layers such
	// as batch norm use their inference statistics).
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward consumes the gradient w.r.t. the layer output and returns
	// the gradient w.r.t. the layer input, accumulating parameter
	// gradients as a side effect. It must be called after a
	// Forward(…, true) with the matching input.
	Backward(gradOut *tensor.Tensor) *tensor.Tensor
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// Clone returns an independent copy of the layer with copied weights
	// and fresh (zero) gradients and caches.
	Clone() Layer
	// Name identifies the layer for diagnostics and parameter naming.
	Name() string
}

// Sequential chains layers; it is itself not a Layer so that it can own
// network-level helpers (parameter flattening, gradient vectors).
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward runs all layers in order. Each intermediate activation goes back
// to the tensor arena once the next layer has consumed it; x and the
// returned output are never released.
func (s *Sequential) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return forwardChain(s.Layers, x, train)
}

// forwardChain runs layers over x in order, releasing every intermediate it
// created. It returns x itself when every layer does.
func forwardChain(layers []Layer, x *tensor.Tensor, train bool) *tensor.Tensor {
	out := x
	for _, l := range layers {
		next := l.Forward(out, train)
		releaseBetween(out, next, x)
		out = next
	}
	return out
}

// backwardChain runs the full Backward of layers in reverse over gradOut,
// releasing every intermediate gradient it created, and returns the
// gradient with respect to the first layer's input.
func backwardChain(layers []Layer, gradOut *tensor.Tensor) *tensor.Tensor {
	g := gradOut
	for i := len(layers) - 1; i >= 0; i-- {
		next := layers[i].Backward(g)
		releaseBetween(g, next, gradOut)
		g = next
	}
	return g
}

// releaseBetween releases t, an intermediate a chain step has consumed,
// unless it is the chain's own input or the step returned it.
func releaseBetween(t, result, input *tensor.Tensor) {
	if t != input && t != result {
		t.Release()
	}
}

// paramBackwarder is a layer whose Backward is backwardParams followed by
// the input-gradient product.
type paramBackwarder interface {
	backwardParams(gradOut *tensor.Tensor)
}

// Backward propagates gradOut through all layers in reverse, accumulating
// every parameter gradient. The gradient with respect to the network input is
// never needed for training, so it is not computed: a first layer with a
// parameter-only backward (Linear, Conv2D) runs just that half. Every
// intermediate gradient goes back to the tensor arena; gradOut is never
// released.
func (s *Sequential) Backward(gradOut *tensor.Tensor) {
	if len(s.Layers) == 0 {
		return
	}
	g := backwardChain(s.Layers[1:], gradOut)
	if first, ok := s.Layers[0].(paramBackwarder); ok {
		first.backwardParams(g)
	} else {
		releaseBetween(s.Layers[0].Backward(g), g, gradOut)
	}
	releaseBetween(g, nil, gradOut)
}

// Backprop runs one training pass over a batch: Forward, the mean softmax
// cross-entropy against labels, and Backward, which accumulates every
// parameter gradient. It returns the loss, and releases the logits and the
// loss gradient.
func (s *Sequential) Backprop(x *tensor.Tensor, labels []int) float64 {
	logits := s.Forward(x, true)
	loss, g := SoftmaxCrossEntropy(logits, labels)
	s.Backward(g)
	g.Release()
	releaseBetween(logits, nil, x)
	return loss
}

// Params returns all learnable parameters in layer order.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrad clears every parameter gradient.
func (s *Sequential) ZeroGrad() {
	for _, p := range s.Params() {
		p.ZeroGrad()
	}
}

// Clone deep-copies the network (weights copied, gradients zeroed).
func (s *Sequential) Clone() *Sequential {
	out := &Sequential{Layers: make([]Layer, len(s.Layers))}
	for i, l := range s.Layers {
		out.Layers[i] = l.Clone()
	}
	return out
}

// NumParams returns the total number of scalar parameters.
func (s *Sequential) NumParams() int {
	n := 0
	for _, p := range s.Params() {
		n += p.W.Len()
	}
	return n
}

// Gradients returns deep copies of all parameter gradients in layer order.
// This is the payload a federated-learning client uploads. The copies are
// pool-backed: a caller done with one may Release it, and one that never
// does simply leaves it to the collector.
func (s *Sequential) Gradients() []*tensor.Tensor {
	ps := s.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.G.ClonePooled()
	}
	return out
}

// SetWeights copies the given tensors into the network parameters. The slice
// must match Params() in length and per-entry shape.
func (s *Sequential) SetWeights(ws []*tensor.Tensor) error {
	ps := s.Params()
	if len(ws) != len(ps) {
		return fmt.Errorf("nn: SetWeights got %d tensors, network has %d params", len(ws), len(ps))
	}
	for i, p := range ps {
		if !p.W.SameShape(ws[i]) {
			return fmt.Errorf("nn: SetWeights param %q shape %v != %v", p.Name, p.W.Shape(), ws[i].Shape())
		}
		copy(p.W.Data(), ws[i].Data())
	}
	return nil
}

// Weights returns deep copies of all parameter values in layer order,
// pool-backed like Gradients.
func (s *Sequential) Weights() []*tensor.Tensor {
	ps := s.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.W.ClonePooled()
	}
	return out
}

// heStd returns the He-initialization standard deviation for fanIn inputs.
func heStd(fanIn int) float64 {
	return math.Sqrt(2.0 / float64(fanIn))
}

// xavierStd returns the Xavier/Glorot standard deviation.
func xavierStd(fanIn, fanOut int) float64 {
	return math.Sqrt(2.0 / float64(fanIn+fanOut))
}

// RandSource derives a deterministic *rand.Rand from a pair of seeds. All
// stochastic components in this repository thread seeds explicitly so every
// experiment is reproducible.
func RandSource(seed1, seed2 uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed1, seed2))
}
