package fl

import (
	"bytes"
	"context"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// maxFuzzElems bounds every tensor the harness itself builds, so a fuzzed
// dimension can only make DecodeModel, never the harness, allocate much.
const maxFuzzElems = 1 << 14

// maxFuzzWorkspace bounds the im2col workspace of the conv layers the
// harness runs. A model may legitimately need a large one: a kernel k wide
// with padding up to k−1 has up to (H+k−1)² output cells of k² values each,
// so an 86-wide kernel padded by 76 needs 1.3 GB for a batch of four 8×8
// images. Such specs decode, but the harness does not run them.
const maxFuzzWorkspace = 1 << 22

// FuzzDecodeModel: a ModelSpec is what a dishonest server sends every
// client, so DecodeModel must reject a malformed one with an error, never a
// panic, and a model it accepts must run a forward pass on an input its
// first layer accepts. The harness builds a one-layer spec from a fuzzed
// kind, geometry and parameter lengths, and, when tail is non-empty, a
// second layer of kind tail whose declared input width is the first layer's
// output width and whose parameters match its geometry. The model must then
// also run when the second layer accepts the first layer's output. Every
// spec that decodes is also sent to a single-step LocalClient on a fixed
// shard, whose HandleRound must return an update or an error, never panic.
// Run beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzDecodeModel -fuzztime 10s ./internal/fl
func FuzzDecodeModel(f *testing.F) {
	type seed struct {
		kind                    string
		in, out, k, stride, pad int
		wLen, bLen              int
		tail                    string
	}
	for _, s := range []seed{
		// Specs that once panicked or slipped through: a linear layer
		// without weights, a batchnorm with -1 channels, a zero-width
		// maxpool window, a linear layer 7 wide that decodes but
		// panicked the client on its 64-wide batch, and an 86-wide conv
		// kernel whose two negative output extents sized a 1.3 GB
		// workspace for the client's 8×8 images.
		{kind: "linear", in: 3, out: 2, bLen: 2},
		{kind: "linear", in: 7, out: 3, wLen: -1, bLen: -1},
		{kind: "conv", in: 1, out: 2, k: 86, stride: 1, pad: 1, wLen: -1, bLen: -1},
		{kind: "batchnorm", in: -1},
		{kind: "maxpool"},
		{kind: "linear", in: 3, out: 2, wLen: 6, bLen: 2, tail: "relu"},
		{kind: "linear", in: 3, out: 2, wLen: 6, bLen: 2, tail: "linear"},
		{kind: "conv", in: 2, out: 3, k: 3, stride: 1, pad: 1, wLen: -1, bLen: -1, tail: "batchnorm"},
		{kind: "conv", in: 1, out: 2, k: 2, stride: 1, pad: 1, wLen: 8, bLen: 2, tail: "maxpool"},
		{kind: "batchnorm", in: 2, wLen: 2, bLen: 2, tail: "gap"},
		{kind: "dropout", k: 3, tail: "flatten"},
		{kind: "residual", out: 2, k: 1, stride: 1, tail: "conv"},
		{kind: "quantum"},
	} {
		f.Add(s.kind, s.in, s.out, s.k, s.stride, s.pad, s.wLen, s.bLen, s.tail)
	}
	f.Fuzz(func(t *testing.T, kind string, in, out, k, stride, pad, wLen, bLen int, tail string) {
		if wLen > maxFuzzElems || bLen > maxFuzzElems {
			return
		}
		first := fuzzLayerSpec("l0", kind, in, out, k, stride, pad, wLen, bLen)
		net, err := DecodeModel(ModelSpec{Layers: []LayerSpec{first}})
		if err != nil {
			return
		}
		if !fuzzConvTooLarge(first, fuzzShardSide) {
			fuzzHandleRound(t, ModelSpec{Layers: []LayerSpec{first}, InputKind: inputKind(net)}, net)
		}
		shape := fuzzInputShape(net.Layers[0])
		if fuzzElems(shape) > maxFuzzElems || fuzzConvTooLarge(first, shape[len(shape)-1]) {
			return
		}
		x := tensor.New(shape...)
		y := net.Forward(x, true)
		if tail == "" {
			return
		}
		second := fuzzLayerSpec("l1", tail, y.Dim(1), out, k, stride, pad, -1, -1)
		net, err = DecodeModel(ModelSpec{Layers: []LayerSpec{first, second}})
		if err != nil {
			return
		}
		// The first layer's output on the shard is at most 2·pad wider
		// than its input.
		if !fuzzConvTooLarge(first, fuzzShardSide) && !fuzzConvTooLarge(second, fuzzShardSide+2*pad) {
			fuzzHandleRound(t, ModelSpec{Layers: []LayerSpec{first, second}, InputKind: inputKind(net)}, net)
		}
		if fuzzAccepts(net.Layers[1], y.Shape()) && !fuzzConvTooLarge(second, y.Dim(y.Dims()-1)) {
			net.Forward(x, true)
		}
	})
}

// fuzzConvTooLarge reports whether s, a layer spec that decoded, is a conv
// whose im2col workspace on a batch of four inputs at most side wide would
// exceed maxFuzzWorkspace. A kernel wider than the padded input never
// sizes a workspace.
func fuzzConvTooLarge(s LayerSpec, side int) bool {
	if s.Kind != "conv" || side+2*s.Pad < s.K {
		return false
	}
	out := (side+2*s.Pad-s.K)/s.Stride + 1
	return 4*s.InC*s.K*s.K*out*out > maxFuzzWorkspace
}

// fuzzShard is the fixed local data every decodable fuzzed spec is trained
// on: 16 single-channel images fuzzShardSide wide, so a flat batch is 64
// wide.
const fuzzShardSide = 8

var fuzzShard = data.NewSynthCustom("fuzz", 4, 1, fuzzShardSide, fuzzShardSide, 16, 5)

// fuzzHandleRound sends spec, which decoded to net, to a single-step
// LocalClient with batches of 4. Whether the model fits the batch or not,
// HandleRound must return, and an update it returns carries one gradient
// per parameter; a panic fails the fuzz target.
func fuzzHandleRound(t *testing.T, spec ModelSpec, net *nn.Sequential) {
	t.Helper()
	c := NewLocalClient("fuzz", fuzzShard, 4, nn.RandSource(9, 9))
	u, err := c.HandleRound(context.Background(), RoundRequest{Model: spec})
	if err == nil && len(u.Grads) != len(net.Params()) {
		t.Fatalf("update has %d gradients for %d parameters", len(u.Grads), len(net.Params()))
	}
}

// fuzzLayerSpec fills every field a layer kind reads from the fuzzed
// geometry. A parameter tensor is nil when its length is 0, has the shape
// the geometry calls for when its length is negative or matches that shape,
// and is flat otherwise.
func fuzzLayerSpec(name, kind string, in, out, k, stride, pad, wLen, bLen int) LayerSpec {
	s := LayerSpec{
		Kind: kind, Name: name,
		InC: in, OutC: out, K: k, Stride: stride, Pad: pad,
		Channels: in, Window: k, DropP: float64(k) / 8, Eps: 1e-5,
		W: fuzzParam(wLen, out, in), B: fuzzParam(bLen, out),
		Gamma: fuzzParam(wLen, in), Beta: fuzzParam(bLen, in),
	}
	if kind == "conv" {
		s.W = fuzzParam(wLen, out, in, k, k)
	}
	if in >= 0 && in <= maxFuzzElems {
		s.RunningMean, s.RunningVar = make([]float64, in), make([]float64, in)
	}
	return s
}

func fuzzParam(n int, shape ...int) *tensor.Tensor {
	if n == 0 {
		return nil
	}
	size := fuzzElems(shape)
	if n < 0 {
		n = size
	}
	if n != size || size > maxFuzzElems {
		shape = []int{n}
	}
	t := tensor.New(shape...)
	t.Fill(0.5)
	return t
}

// fuzzElems is the element count of shape, or maxFuzzElems+1 when that
// count is not positive or exceeds maxFuzzElems.
func fuzzElems(shape []int) int {
	n := 1
	for _, d := range shape {
		if d <= 0 || d > maxFuzzElems/n {
			return maxFuzzElems + 1
		}
		n *= d
	}
	return n
}

// fuzzInputShape is a batch of two inputs that l's geometry accepts.
func fuzzInputShape(l nn.Layer) []int {
	switch l := l.(type) {
	case *nn.Linear:
		return []int{2, l.In}
	case *nn.Conv2D:
		return []int{2, l.InC, l.K, l.K}
	case *nn.BatchNorm2D:
		return []int{2, l.C, 2, 2}
	case *nn.MaxPool2D:
		return []int{2, 1, max(l.K, 2), max(l.K, 2)}
	default:
		return []int{2, 2, 2, 2}
	}
}

// fuzzAccepts reports whether l's geometry accepts an input of the shape.
func fuzzAccepts(l nn.Layer, shape []int) bool {
	switch l := l.(type) {
	case *nn.Linear:
		return len(shape) == 2 && shape[1] == l.In
	case *nn.Conv2D:
		return len(shape) == 4 && shape[1] == l.InC && min(shape[2], shape[3])+2*l.Pad >= l.K
	case *nn.BatchNorm2D:
		return len(shape) == 4 && shape[1] == l.C
	case *nn.MaxPool2D:
		return len(shape) == 4 && min(shape[2], shape[3]) >= l.K
	case *nn.GlobalAvgPool:
		return len(shape) == 4
	default:
		return true
	}
}

// FuzzReadModel: a checkpoint stream comes from a file the reader does not
// control, so ReadModel must reject a malformed one with an error, never a
// panic. A spec it accepts either fails DecodeModel or decodes to a model
// whose layers run forward, one by one, as far as each accepts its input.
// The corpus starts from the test MLP's checkpoint and a truncated copy.
// Run beyond it with:
//
//	go test -run '^$' -fuzz FuzzReadModel -fuzztime 10s ./internal/fl
func FuzzReadModel(f *testing.F) {
	spec, err := EncodeModel(testModel(nil))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, spec); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add(buf.Bytes()[:buf.Len()/2])
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := ReadModel(bytes.NewReader(raw))
		if err != nil {
			return
		}
		net, err := DecodeModel(spec)
		if err != nil || len(net.Layers) == 0 {
			return
		}
		shape := fuzzInputShape(net.Layers[0])
		if fuzzElems(shape) > maxFuzzElems {
			return
		}
		fuzzForward(net.Layers, tensor.New(shape...))
	})
}

// fuzzForward runs x through layers in order and returns the output, or nil
// at the first layer that does not accept its input. A residual block runs
// only when its body and skip paths both run and agree in shape.
func fuzzForward(layers []nn.Layer, x *tensor.Tensor) *tensor.Tensor {
	for _, l := range layers {
		if r, ok := l.(*nn.Residual); ok {
			out, skip := fuzzForward(r.Body, x), x
			if r.Proj != nil {
				skip = fuzzForward([]nn.Layer{r.Proj}, x)
			}
			if out == nil || skip == nil || !out.SameShape(skip) {
				return nil
			}
		} else if !fuzzAccepts(l, x.Shape()) {
			return nil
		}
		x = l.Forward(x, true)
	}
	return x
}
