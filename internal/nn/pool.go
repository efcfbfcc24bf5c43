package nn

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/tensor"
)

// GlobalAvgPool reduces [B, C, H, W] to [B, C] by spatial averaging.
type GlobalAvgPool struct {
	inShape []int
	name    string
}

var _ Layer = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool constructs a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

// Forward averages each channel over its spatial extent.
func (g *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if x.Dims() != 4 {
		panic(fmt.Sprintf("nn: %s expects [B,C,H,W], got %v", g.name, x.Shape()))
	}
	b, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(b, c)
	xd, od := x.Data(), out.Data()
	hw := float64(h * w)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := ((bi * c) + ci) * h * w
			s := 0.0
			for i := 0; i < h*w; i++ {
				s += xd[base+i]
			}
			od[bi*c+ci] = s / hw
		}
	}
	if train {
		g.inShape = x.Shape()
	}
	return out
}

// Backward spreads each channel gradient uniformly over its spatial extent.
func (g *GlobalAvgPool) Backward(gradOut *tensor.Tensor) *tensor.Tensor {
	if g.inShape == nil {
		panic(fmt.Sprintf("nn: %s Backward before Forward(train)", g.name))
	}
	b, c, h, w := g.inShape[0], g.inShape[1], g.inShape[2], g.inShape[3]
	out := tensor.New(b, c, h, w)
	od := out.Data()
	gd := gradOut.Data()
	hw := float64(h * w)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			v := gd[bi*c+ci] / hw
			base := ((bi * c) + ci) * h * w
			for i := 0; i < h*w; i++ {
				od[base+i] = v
			}
		}
	}
	return out
}

// Params returns nil: pooling has no parameters.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// Clone returns a fresh pool layer.
func (g *GlobalAvgPool) Clone() Layer { return NewGlobalAvgPool(g.name) }

// Name returns the layer name.
func (g *GlobalAvgPool) Name() string { return g.name }
