package nn

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/tensor"
)

// Conv2D is a 2-D convolution over [B, C, H, W] activations implemented by
// im2col lowering. Weight shape is [outC, inC, KH, KW]; bias is [outC].
//
// Workspace lifecycle: the im2col matrix and the backward scratch buffers are
// drawn from the tensor workspace arena (tensor.NewPooled) and handed back as
// soon as their last reader is done — the cols workspace lives from
// Forward(train) to the end of the matching Backward, everything else within
// a single call. Per-step allocation volume therefore stays O(model) instead
// of O(B·OH·OW) once the arena is warm, which is what keeps GC pressure flat
// when thousands of simulated clients train per round.
type Conv2D struct {
	InC, OutC, K, Stride, Pad int
	Weight                    *Param
	Bias                      *Param

	lastCols   *tensor.Tensor // pooled; released at the end of Backward
	lastInDims [4]int
	lastOut    [2]int
	name       string
}

var _ Layer = (*Conv2D)(nil)

// NewConv2D constructs a square-kernel convolution with He initialization.
func NewConv2D(name string, inC, outC, k, stride, pad int, rng *rand.Rand) *Conv2D {
	w := tensor.New(outC, inC, k, k)
	w.FillRandn(rng, heStd(inC*k*k))
	return &Conv2D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		Weight: &Param{Name: name + ".weight", W: w, G: tensor.New(outC, inC, k, k)},
		Bias:   &Param{Name: name + ".bias", W: tensor.New(outC), G: tensor.New(outC)},
		name:   name,
	}
}

// Forward computes the convolution via im2col + the fused ConvOut kernel
// (matmul, [B,outC,OH,OW] rearrange, and bias add in one pass).
func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 || x.Dim(1) != c.InC {
		panic(fmt.Sprintf("nn: %s expects [B,%d,H,W], got %v", c.name, c.InC, x.Shape()))
	}
	b, h, w := x.Dim(0), x.Dim(2), x.Dim(3)
	// A kernel wider than the padded input has no output cell; checked
	// before the workspace is sized, since two negative output extents
	// would multiply into a large positive one.
	if h+2*c.Pad < c.K || w+2*c.Pad < c.K {
		panic(fmt.Sprintf("nn: %s kernel %d with padding %d exceeds input %v", c.name, c.K, c.Pad, x.Shape()))
	}
	oh := (h+2*c.Pad-c.K)/c.Stride + 1
	ow := (w+2*c.Pad-c.K)/c.Stride + 1
	// The lowering workspace comes from the shared arena: a train-mode
	// Forward hands it to Backward (which releases it), an inference pass
	// releases it immediately. An inference pass between a Forward(train)
	// and its Backward therefore never disturbs the pending pair.
	cols := tensor.NewPooled(b*oh*ow, c.InC*c.K*c.K)
	tensor.Im2ColInto(cols, x, c.K, c.K, c.Stride, c.Pad)
	wmat := c.Weight.W.MustReshape(c.OutC, c.InC*c.K*c.K)
	out := tensor.ConvOut(cols, wmat, c.Bias.W.Data(), b, oh, ow)
	if train {
		// A repeated Forward(train) with no intervening Backward (numerical
		// gradient checks do this) orphans the previous workspace: recycle it.
		c.lastCols.Release()
		c.lastCols = cols
		c.lastInDims = [4]int{b, c.InC, h, w}
		c.lastOut = [2]int{oh, ow}
	} else {
		cols.Release()
	}
	return out
}

// Backward accumulates weight/bias gradients and returns the input gradient.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	b, h, w := c.lastInDims[0], c.lastInDims[2], c.lastInDims[3]
	gRows := c.paramGrads(gradOut)
	// ∂L/∂cols = gRows · Wmat → scatter back with Col2Im.
	wmat := c.Weight.W.MustReshape(c.OutC, c.InC*c.K*c.K)
	gCols := tensor.MatMul(gRows, wmat)
	gRows.Release()
	dx := tensor.Col2Im(gCols, b, c.InC, h, w, c.K, c.K, c.Stride, c.Pad)
	gCols.Release()
	return dx
}

// backwardParams is Backward without the input gradient, which skips the
// MatMul and Col2Im that produce it.
func (c *Conv2D) backwardParams(gradOut *tensor.Tensor) {
	c.paramGrads(gradOut).Release()
}

// paramGrads accumulates the weight and bias gradients, releases the im2col
// workspace, and returns gradOut rearranged to [B·OH·OW, outC] rows for the
// input-gradient product. The rows are pooled; the caller releases them.
func (c *Conv2D) paramGrads(gradOut *tensor.Tensor) *tensor.Tensor {
	if c.lastCols == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train)", c.name))
	}
	b := c.lastInDims[0]
	oh, ow := c.lastOut[0], c.lastOut[1]
	if gradOut.Dims() != 4 || gradOut.Dim(0) != b || gradOut.Dim(1) != c.OutC || gradOut.Dim(2) != oh || gradOut.Dim(3) != ow {
		panic(fmt.Sprintf("nn: %s Backward shape %v, want [%d,%d,%d,%d]", c.name, gradOut.Shape(), b, c.OutC, oh, ow))
	}
	// Rearrange gradOut [B,outC,OH,OW] → gRows [B*OH*OW, outC].
	gRows := tensor.NewPooled(b*oh*ow, c.OutC)
	gd := gradOut.Data()
	gr := gRows.Data()
	for bi := 0; bi < b; bi++ {
		for oc := 0; oc < c.OutC; oc++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					gr[((bi*oh+oy)*ow+ox)*c.OutC+oc] = gd[((bi*c.OutC+oc)*oh+oy)*ow+ox]
				}
			}
		}
	}
	// ∂L/∂W += gRowsᵀ · cols, viewed as [outC, inC*K*K]
	tensor.MatMulTransAInto(c.Weight.G.MustReshape(c.OutC, c.InC*c.K*c.K), gRows, c.lastCols, true)
	c.lastCols.Release()
	c.lastCols = nil
	// ∂L/∂b = column sums of gRows
	gb := c.Bias.G.Data()
	for r := 0; r < gRows.Dim(0); r++ {
		row := gRows.RowView(r)
		for oc := range row {
			gb[oc] += row[oc]
		}
	}
	return gRows
}

// Params returns weight and bias.
func (c *Conv2D) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Clone returns a deep copy with zeroed gradients (workspaces are not
// cloned; each instance draws its own from the arena).
func (c *Conv2D) Clone() Layer {
	cp := &Conv2D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		Weight: &Param{Name: c.Weight.Name, W: c.Weight.W.Clone(), G: tensor.New(c.Weight.W.Shape()...)},
		Bias:   &Param{Name: c.Bias.Name, W: c.Bias.W.Clone(), G: tensor.New(c.Bias.W.Shape()...)},
		name:   c.name,
	}
	return cp
}

// Name returns the layer name.
func (c *Conv2D) Name() string { return c.name }
