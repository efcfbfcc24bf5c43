package fl

import (
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

func randInput(rng interface{ NormFloat64() float64 }, shape ...int) *tensor.Tensor {
	x := tensor.New(shape...)
	d := x.Data()
	for i := range d {
		d[i] = rng.NormFloat64()
	}
	return x
}

// TestModelSpecRoundTripMLP checks that an encoded model decodes to a
// functionally identical network.
func TestModelSpecRoundTripMLP(t *testing.T) {
	rng := nn.RandSource(1, 1)
	net := nn.NewSequential(
		nn.NewLinear("fc1", 6, 8, rng),
		nn.NewReLU("relu"),
		nn.NewLinear("fc2", 8, 4, rng),
	)
	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	if spec.InputKind != "flat" {
		t.Errorf("InputKind = %q, want flat", spec.InputKind)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 3, 6)
	if !net.Forward(x, false).EqualApprox(back.Forward(x, false), 1e-12) {
		t.Error("decoded MLP differs from original")
	}
}

// TestModelSpecRoundTripResNet covers every layer kind the codec supports,
// including nested residual blocks with projections and batch-norm state.
func TestModelSpecRoundTripResNet(t *testing.T) {
	rng := nn.RandSource(2, 1)
	net := nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: 3, NumClasses: 5, Width: 4}, rng)
	// Move batch-norm running stats off their defaults first.
	x4 := randInput(rng, 2, 3, 8, 8)
	net.Forward(x4, true)

	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	if spec.InputKind != "image" {
		t.Errorf("InputKind = %q, want image", spec.InputKind)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !net.Forward(x4, false).EqualApprox(back.Forward(x4, false), 1e-10) {
		t.Error("decoded ResNet-lite differs from original (inference mode)")
	}
	// Gradients must match too: the attacks depend on exact gradients of
	// the dispatched model.
	labels := []int{0, 3}
	run := func(m *nn.Sequential) []*tensor.Tensor {
		m.ZeroGrad()
		out := m.Forward(x4, true)
		_, g := nn.SoftmaxCrossEntropy(out, labels)
		m.Backward(g)
		return m.Gradients()
	}
	ga, gb := run(net), run(back)
	if len(ga) != len(gb) {
		t.Fatalf("gradient counts differ: %d vs %d", len(ga), len(gb))
	}
	for i := range ga {
		if !ga[i].EqualApprox(gb[i], 1e-9) {
			t.Fatalf("gradient %d differs after round trip", i)
		}
	}
}

func TestModelSpecRoundTripPooling(t *testing.T) {
	rng := nn.RandSource(3, 1)
	net := nn.NewSequential(
		nn.NewConv2D("c", 1, 2, 3, 1, 1, rng),
		nn.NewGlobalAvgPool("gap"),
		nn.NewLinear("fc", 2, 2, rng),
	)
	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 2, 1, 6, 6)
	if !net.Forward(x, false).EqualApprox(back.Forward(x, false), 1e-12) {
		t.Error("decoded pooling net differs")
	}
}

func TestDecodeRejectsUnknownKind(t *testing.T) {
	if _, err := DecodeModel(ModelSpec{Layers: []LayerSpec{{Kind: "quantum"}}}); err == nil {
		t.Error("unknown layer kind accepted")
	}
}

func TestDecodeRejectsCorruptLinear(t *testing.T) {
	if _, err := decodeLayer(LayerSpec{Kind: "linear", Name: "fc", B: tensor.New(2)}); err == nil {
		t.Error("linear without weights accepted")
	}
	if _, err := decodeLayer(LayerSpec{Kind: "linear", Name: "fc", W: tensor.New(2, 3)}); err == nil {
		t.Error("linear without bias accepted")
	}
}

func TestDecodeRejectsCorruptConv(t *testing.T) {
	valid := LayerSpec{Kind: "conv", Name: "c", InC: 2, OutC: 2, K: 3, Stride: 1, Pad: 1,
		W: tensor.New(2, 2, 3, 3), B: tensor.New(2)}
	if _, err := decodeLayer(valid); err != nil {
		t.Fatalf("valid conv rejected: %v", err)
	}
	for name, corrupt := range map[string]func(*LayerSpec){
		"mismatched weight shape":       func(s *LayerSpec) { s.W = tensor.New(1, 1, 1, 1) },
		"mismatched bias shape":         func(s *LayerSpec) { s.B = tensor.New(3) },
		"missing weights":               func(s *LayerSpec) { s.W = nil },
		"missing bias":                  func(s *LayerSpec) { s.B = nil },
		"zero input channels":           func(s *LayerSpec) { s.InC = 0 },
		"negative output channels":      func(s *LayerSpec) { s.OutC = -1 },
		"zero kernel":                   func(s *LayerSpec) { s.K = 0 },
		"zero stride":                   func(s *LayerSpec) { s.Stride = 0 },
		"negative padding":              func(s *LayerSpec) { s.Pad = -1 },
		"padding as wide as the kernel": func(s *LayerSpec) { s.Pad = 3 },
		"padding past half the kernel":  func(s *LayerSpec) { s.Pad = 2 },
		// A constructor run on this geometry would allocate 2·2^40·9 floats;
		// the test finishing at all shows the check runs first.
		"huge input channels": func(s *LayerSpec) { s.InC = 1 << 40 },
	} {
		spec := valid
		corrupt(&spec)
		if _, err := decodeLayer(spec); err == nil {
			t.Errorf("conv with %s accepted", name)
		}
	}
}

func TestDecodeRejectsCorruptBatchNorm(t *testing.T) {
	spec := LayerSpec{Kind: "batchnorm", Name: "bn", Channels: 3,
		Gamma: tensor.New(2), Beta: tensor.New(3),
		RunningMean: make([]float64, 3), RunningVar: make([]float64, 3)}
	if _, err := decodeLayer(spec); err == nil {
		t.Error("batchnorm with wrong gamma shape accepted")
	}
	for _, c := range []int{0, -1} {
		if _, err := decodeLayer(LayerSpec{Kind: "batchnorm", Name: "bn", Channels: c}); err == nil {
			t.Errorf("batchnorm with %d channels accepted", c)
		}
	}
}

// TestDecodeRejectsRemovedKinds: sigmoid, tanh, dropout and maxpool were
// wire kinds once, and no model this repository builds uses them; a spec
// that still names one is an unknown kind.
func TestDecodeRejectsRemovedKinds(t *testing.T) {
	for _, kind := range []string{"sigmoid", "tanh", "dropout", "maxpool"} {
		_, err := DecodeModel(ModelSpec{Layers: []LayerSpec{{Kind: kind, Name: kind}}})
		if err == nil || !strings.Contains(err.Error(), "unknown layer kind") {
			t.Errorf("%s: err = %v, want an unknown layer kind error", kind, err)
		}
	}
}

// TestMaliciousSwapIsExpressible is the threat-model property: a dishonest
// server can replace the whole architecture with a different one and the
// client will faithfully run it.
func TestMaliciousSwapIsExpressible(t *testing.T) {
	rng := nn.RandSource(4, 1)
	honest := nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: 3, NumClasses: 4, Width: 4}, rng)
	honestSpec, err := EncodeModel(honest)
	if err != nil {
		t.Fatal(err)
	}
	malicious := nn.NewSequential(
		nn.NewLinear("malicious", 3*8*8, 32, rng),
		nn.NewReLU("r"),
		nn.NewLinear("head", 32, 4, rng),
	)
	malSpec, err := EncodeModel(malicious)
	if err != nil {
		t.Fatal(err)
	}
	if honestSpec.InputKind == malSpec.InputKind {
		t.Error("swap should even change the input kind (image → flat)")
	}
	back, err := DecodeModel(malSpec)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(back.Layers); got != 3 {
		t.Errorf("decoded malicious model has %d layers", got)
	}
}
