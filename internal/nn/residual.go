package nn

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/tensor"
)

// Residual wraps a body of layers with an identity (or 1×1-projection) skip
// connection: y = body(x) + proj(x). It is the building block of the
// ResNet-lite classifier used for the Table I utility experiment.
type Residual struct {
	Body []Layer
	Proj Layer // nil means identity skip

	name string
}

var _ Layer = (*Residual)(nil)

// NewResidual wraps body layers with an identity skip connection.
func NewResidual(name string, body ...Layer) *Residual {
	return &Residual{Body: body, name: name}
}

// NewResidualProj wraps body layers with a projection layer on the skip path
// (used when the body changes channel count or spatial size).
func NewResidualProj(name string, proj Layer, body ...Layer) *Residual {
	return &Residual{Body: body, Proj: proj, name: name}
}

// Forward computes body(x) + skip(x), releasing the body's and the
// projection's outputs once summed.
func (r *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	out := forwardChain(r.Body, x, train)
	skip := x
	if r.Proj != nil {
		skip = r.Proj.Forward(x, train)
	}
	if !out.SameShape(skip) {
		panic(fmt.Sprintf("nn: %s body output %v does not match skip %v", r.name, out.Shape(), skip.Shape()))
	}
	sum := out.Add(skip)
	releaseBetween(out, nil, x)
	releaseBetween(skip, nil, x)
	return sum
}

// Backward splits the output gradient between the body and the skip path and
// sums the two input gradients.
func (r *Residual) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	g := backwardChain(r.Body, gradOut)
	skip := gradOut
	if r.Proj != nil {
		skip = r.Proj.Backward(gradOut)
	}
	sum := g.Add(skip)
	releaseBetween(g, nil, gradOut)
	releaseBetween(skip, nil, gradOut)
	return sum
}

// Params returns the parameters of the body and projection.
func (r *Residual) Params() []*Param {
	var ps []*Param
	for _, l := range r.Body {
		ps = append(ps, l.Params()...)
	}
	if r.Proj != nil {
		ps = append(ps, r.Proj.Params()...)
	}
	return ps
}

// Clone deep-copies body and projection.
func (r *Residual) Clone() Layer {
	c := &Residual{name: r.name, Body: make([]Layer, len(r.Body))}
	for i, l := range r.Body {
		c.Body[i] = l.Clone()
	}
	if r.Proj != nil {
		c.Proj = r.Proj.Clone()
	}
	return c
}

// Name returns the block name.
func (r *Residual) Name() string { return r.name }

// ResNetLiteConfig sizes the small residual classifier used in place of the
// paper's ResNet-18 (see README, "Running the paper experiments").
type ResNetLiteConfig struct {
	InChannels int // input image channels
	NumClasses int
	Width      int // channel count of the first stage; later stages double it
}

// NewResNetLite builds a 3-stage residual classifier:
//
//	conv3x3(w) → BN → ReLU
//	stage1: residual block at w
//	stage2: strided conv to 2w + residual block
//	stage3: strided conv to 4w + residual block
//	global average pool → linear head
func NewResNetLite(cfg ResNetLiteConfig, rng *rand.Rand) *Sequential {
	w := cfg.Width
	block := func(name string, c int) Layer {
		return NewResidual(name,
			NewConv2D(name+".conv1", c, c, 3, 1, 1, rng),
			NewBatchNorm2D(name+".bn1", c),
			NewReLU(name+".relu1"),
			NewConv2D(name+".conv2", c, c, 3, 1, 1, rng),
			NewBatchNorm2D(name+".bn2", c),
		)
	}
	down := func(name string, inC, outC int) []Layer {
		return []Layer{
			NewConv2D(name+".down", inC, outC, 3, 2, 1, rng),
			NewBatchNorm2D(name+".dbn", outC),
			NewReLU(name + ".drelu"),
		}
	}
	layers := []Layer{
		NewConv2D("stem.conv", cfg.InChannels, w, 3, 1, 1, rng),
		NewBatchNorm2D("stem.bn", w),
		NewReLU("stem.relu"),
		block("stage1", w),
		NewReLU("stage1.out"),
	}
	layers = append(layers, down("stage2", w, 2*w)...)
	layers = append(layers, block("stage2.block", 2*w), NewReLU("stage2.out"))
	layers = append(layers, down("stage3", 2*w, 4*w)...)
	layers = append(layers, block("stage3.block", 4*w), NewReLU("stage3.out"))
	layers = append(layers,
		NewGlobalAvgPool("head.pool"),
		NewLinear("head.fc", 4*w, cfg.NumClasses, rng),
	)
	return NewSequential(layers...)
}
