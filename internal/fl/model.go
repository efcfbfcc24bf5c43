// Package fl implements the federated-learning protocol of the paper's §II-A:
// a central server iteratively dispatches the current global model to a
// random subset of clients, each client computes gradients on a local batch
// (Gᵗ_j = ∇L(D_j, wᵗ)) and uploads them, and the server averages the
// gradients into a FedSGD step (Eq. 1).
//
// The threat model (§III-A) is wired in as two server hooks:
//
//   - ModelModifier lets a dishonest server arbitrarily rewrite the model —
//     architecture included — before dispatch (this is how the RTF/CAH
//     malicious layers are planted);
//   - UpdateObserver taps every raw client update before aggregation (this
//     is where the attacker runs gradient inversion).
//
// Clients defend themselves with one two-stage Defense: a batch rewrite
// before training (OASIS) and a gradient transform before upload (DPSGD,
// pruning). Transports are pluggable: in-memory for simulation and
// benchmarks, TCP/gob for genuinely distributed runs.
//
// The round engine is concurrent: a bounded worker pool
// (ServerConfig.Workers) runs HandleRound for the selected clients in
// parallel, while all bookkeeping — UpdateObserver taps, failure accounting,
// and aggregation through the pluggable Aggregator (mean, coordinate-wise
// median, trimmed mean, norm clipping; see NewAggregatorByName) — is merged
// on the server goroutine in client-selection order. A run's History is
// therefore bit-identical for every worker count under the same seed. See
// the Client, Aggregator, and UpdateObserver docs for the exact
// goroutine-safety contracts.
package fl

import (
	"fmt"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// LayerSpec is the wire description of one network layer. The server ships
// the full architecture every round, which is exactly what gives a dishonest
// server the power the paper analyzes: clients execute whatever model they
// receive.
type LayerSpec struct {
	Kind string // linear | relu | flatten | conv | batchnorm | gap | residual
	Name string

	// linear / conv parameters
	W *tensor.Tensor
	B *tensor.Tensor

	// conv geometry
	InC, OutC, K, Stride, Pad int

	// batchnorm state
	Gamma, Beta             *tensor.Tensor
	RunningMean, RunningVar []float64
	Eps, Momentum           float64
	Channels                int

	// residual
	Body []LayerSpec
	Proj *LayerSpec
}

// ModelSpec is a complete serializable model: architecture plus weights.
type ModelSpec struct {
	Layers []LayerSpec
	// InputKind tells the client how to shape its batch: "flat" for
	// [B, C·H·W] (fully-connected first layer) or "image" for [B,C,H,W].
	InputKind string
}

// EncodeModel converts a network into its wire description.
func EncodeModel(net *nn.Sequential) (ModelSpec, error) {
	specs, err := encodeLayers(net.Layers)
	if err != nil {
		return ModelSpec{}, err
	}
	return ModelSpec{Layers: specs, InputKind: inputKind(net)}, nil
}

// inputKind is the first-layer rule behind ModelSpec.InputKind: a network
// whose first layer is Linear takes flat input, any other takes images.
func inputKind(net *nn.Sequential) string {
	if len(net.Layers) > 0 {
		if _, ok := net.Layers[0].(*nn.Linear); ok {
			return "flat"
		}
	}
	return "image"
}

// batchInput shapes a batch for a model of the given InputKind.
func batchInput(b *data.Batch, kind string) (*tensor.Tensor, error) {
	switch kind {
	case "flat":
		return b.Flatten(), nil
	case "image", "":
		return b.Tensor4D(), nil
	default:
		return nil, fmt.Errorf("unknown input kind %q", kind)
	}
}

func encodeLayers(layers []nn.Layer) ([]LayerSpec, error) {
	out := make([]LayerSpec, 0, len(layers))
	for _, l := range layers {
		spec, err := encodeLayer(l)
		if err != nil {
			return nil, err
		}
		out = append(out, spec)
	}
	return out, nil
}

func encodeLayer(l nn.Layer) (LayerSpec, error) {
	switch v := l.(type) {
	case *nn.Linear:
		return LayerSpec{Kind: "linear", Name: v.Name(), W: v.Weight.W.Clone(), B: v.Bias.W.Clone()}, nil
	case *nn.ReLU:
		return LayerSpec{Kind: "relu", Name: v.Name()}, nil
	case *nn.Flatten:
		return LayerSpec{Kind: "flatten", Name: v.Name()}, nil
	case *nn.Conv2D:
		return LayerSpec{
			Kind: "conv", Name: v.Name(), W: v.Weight.W.Clone(), B: v.Bias.W.Clone(),
			InC: v.InC, OutC: v.OutC, K: v.K, Stride: v.Stride, Pad: v.Pad,
		}, nil
	case *nn.BatchNorm2D:
		return LayerSpec{
			Kind: "batchnorm", Name: v.Name(), Channels: v.C,
			Gamma: v.Gamma.W.Clone(), Beta: v.Beta.W.Clone(),
			RunningMean: append([]float64(nil), v.RunningMean...),
			RunningVar:  append([]float64(nil), v.RunningVar...),
			Eps:         v.Eps, Momentum: v.Momentum,
		}, nil
	case *nn.GlobalAvgPool:
		return LayerSpec{Kind: "gap", Name: v.Name()}, nil
	case *nn.Residual:
		body, err := encodeLayers(v.Body)
		if err != nil {
			return LayerSpec{}, err
		}
		spec := LayerSpec{Kind: "residual", Name: v.Name(), Body: body}
		if v.Proj != nil {
			p, err := encodeLayer(v.Proj)
			if err != nil {
				return LayerSpec{}, err
			}
			spec.Proj = &p
		}
		return spec, nil
	default:
		return LayerSpec{}, fmt.Errorf("fl: cannot encode layer type %T", l)
	}
}

// DecodeModel reconstructs a runnable network from its wire description.
//
// A fully-connected layer adopts the spec's W and B tensors instead of
// copying them (nn.NewLinearFrom), so the spec must outlive the model and
// stay unchanged while it runs, and a caller that trains the model must
// train copies; conv and batchnorm layers copy their parameters. Gradients
// are drawn from the tensor arena, so a decoded model is cheap to build once
// per client round: a Linear's weight gradient holds no value until the
// first Backward writes it, and every other gradient starts at zero. A
// caller that owns the model for exactly one round, as LocalClient does,
// either releases or uploads its G, and the next client's decode reuses
// those buffers; any other caller may just drop the model for the collector.
func DecodeModel(spec ModelSpec) (*nn.Sequential, error) {
	layers, err := decodeLayers(spec.Layers)
	if err != nil {
		return nil, err
	}
	return nn.NewSequential(layers...), nil
}

func decodeLayers(specs []LayerSpec) ([]nn.Layer, error) {
	out := make([]nn.Layer, 0, len(specs))
	for _, s := range specs {
		l, err := decodeLayer(s)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

func decodeLayer(s LayerSpec) (nn.Layer, error) {
	if err := validateLayer(s); err != nil {
		return nil, err
	}
	switch s.Kind {
	case "linear":
		return nn.NewLinearFrom(s.Name, s.W, s.B)
	case "relu":
		return nn.NewReLU(s.Name), nil
	case "flatten":
		return nn.NewFlatten(s.Name), nil
	case "conv":
		c := nn.NewConv2D(s.Name, s.InC, s.OutC, s.K, s.Stride, s.Pad, nn.RandSource(0, 0))
		copy(c.Weight.W.Data(), s.W.Data())
		copy(c.Bias.W.Data(), s.B.Data())
		return c, nil
	case "batchnorm":
		bn := nn.NewBatchNorm2D(s.Name, s.Channels)
		copy(bn.Gamma.W.Data(), s.Gamma.Data())
		copy(bn.Beta.W.Data(), s.Beta.Data())
		copy(bn.RunningMean, s.RunningMean)
		copy(bn.RunningVar, s.RunningVar)
		bn.Eps, bn.Momentum = s.Eps, s.Momentum
		return bn, nil
	case "gap":
		return nn.NewGlobalAvgPool(s.Name), nil
	case "residual":
		body, err := decodeLayers(s.Body)
		if err != nil {
			return nil, err
		}
		if s.Proj == nil {
			return nn.NewResidual(s.Name, body...), nil
		}
		proj, err := decodeLayer(*s.Proj)
		if err != nil {
			return nil, err
		}
		return nn.NewResidualProj(s.Name, proj, body...), nil
	default:
		return nil, fmt.Errorf("fl: unknown layer kind %q", s.Kind)
	}
}

// validateLayer checks one layer spec before any constructor runs. The spec
// comes from a server the threat model does not trust, so a malformed one
// must be an error rather than a panic, and a layer whose parameters do not
// match its declared geometry must fail before anything is allocated for it.
func validateLayer(s LayerSpec) error {
	switch s.Kind {
	case "linear":
		if s.W == nil || s.B == nil {
			return fmt.Errorf("fl: linear spec %q missing parameters", s.Name)
		}
	case "conv":
		// Padding is the one field that would let a server grow the
		// client's activations past its input: an 86-wide kernel padded by
		// 76 turns an 8×8 image into a 75×75 output and sizes im2col for
		// it. Capping it at (K−1)/2 ("same" padding) keeps every conv
		// output no wider than its input.
		if s.InC <= 0 || s.OutC <= 0 || s.K <= 0 || s.Stride <= 0 || s.Pad < 0 || s.Pad > (s.K-1)/2 {
			return fmt.Errorf("fl: conv spec %q has invalid geometry in=%d out=%d k=%d stride=%d pad=%d",
				s.Name, s.InC, s.OutC, s.K, s.Stride, s.Pad)
		}
		if s.W == nil || s.B == nil {
			return fmt.Errorf("fl: conv spec %q missing parameters", s.Name)
		}
		if !hasShape(s.W, s.OutC, s.InC, s.K, s.K) || !hasShape(s.B, s.OutC) {
			return fmt.Errorf("fl: conv spec %q parameter shapes %v/%v do not match geometry", s.Name, s.W.Shape(), s.B.Shape())
		}
	case "batchnorm":
		if s.Channels <= 0 || s.Gamma == nil || s.Beta == nil ||
			!hasShape(s.Gamma, s.Channels) || !hasShape(s.Beta, s.Channels) ||
			len(s.RunningMean) != s.Channels || len(s.RunningVar) != s.Channels {
			return fmt.Errorf("fl: batchnorm spec %q has inconsistent shapes", s.Name)
		}
	}
	return nil
}

// hasShape reports whether t has exactly the given shape.
func hasShape(t *tensor.Tensor, shape ...int) bool {
	if t.Dims() != len(shape) {
		return false
	}
	for i, d := range shape {
		if t.Dim(i) != d {
			return false
		}
	}
	return true
}
