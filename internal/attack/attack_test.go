package attack

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

func TestVictimGradientsAreExact(t *testing.T) {
	// The whole attack story rests on the victim's uploaded gradients
	// being the exact analytic gradients; check against finite
	// differences on a small instance.
	ds := data.NewSynthCustom("gc", 4, 1, 4, 4, 32, 1)
	dims := ImageDims{C: 1, H: 4, W: 4}
	rng := nn.RandSource(1, 1)
	w := tensor.New(6, 16)
	w.FillRandn(rng, 0.3)
	b := tensor.New(6)
	b.FillRandn(rng, 0.1)
	victim, err := NewVictim(dims, 4, w, b, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := data.RandomBatch(ds, rng, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := nn.CheckGradients(victim.Net, nn.SoftmaxCrossEntropy{}, batch.Flatten(), batch.Labels, 1e-5)
	if err != nil {
		t.Fatalf("victim gradients not exact: %v", err)
	}
	if res.MaxRelErr > 1e-4 {
		t.Fatalf("victim gradient error %.2e", res.MaxRelErr)
	}
}

func TestNewVictimValidatesShapes(t *testing.T) {
	rng := nn.RandSource(2, 1)
	dims := ImageDims{C: 1, H: 4, W: 4}
	if _, err := NewVictim(dims, 3, tensor.New(5, 99), tensor.New(5), rng); err == nil {
		t.Error("width mismatch accepted")
	}
	if _, err := NewVictim(dims, 3, tensor.New(5, 16), tensor.New(4), rng); err == nil {
		t.Error("bias mismatch accepted")
	}
}

func TestRTFThresholdsAscending(t *testing.T) {
	ds := data.NewSynthCIFAR100(3)
	c, h, w := ds.Shape()
	rng := nn.RandSource(3, 1)
	rtf, err := NewRTF(ImageDims{C: c, H: h, W: w}, 100, 300, ds, rng, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(rtf.Thresholds); i++ {
		if rtf.Thresholds[i] <= rtf.Thresholds[i-1] {
			t.Fatalf("thresholds not strictly ascending at %d", i)
		}
	}
}

func TestRTFNeedsTwoNeurons(t *testing.T) {
	ds := data.NewSynthCIFAR100(3)
	c, h, w := ds.Shape()
	rng := nn.RandSource(3, 2)
	if _, err := NewRTF(ImageDims{C: c, H: h, W: w}, 100, 1, ds, rng, 16); err == nil {
		t.Error("single-neuron RTF accepted")
	}
}

func TestRTFReconstructionCountMatchesBatch(t *testing.T) {
	// With fine bins and a small batch, RTF recovers exactly one image
	// per occupied bin.
	ds := data.NewSynthCIFAR100(4)
	c, h, w := ds.Shape()
	dims := ImageDims{C: c, H: h, W: w}
	rng := nn.RandSource(4, 1)
	rtf, err := NewRTF(dims, ds.NumClasses(), 400, ds, rng, 256)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := data.RandomBatch(ds, rng, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, recons, err := rtf.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(recons) < 5 || len(recons) > 7 {
		t.Errorf("%d reconstructions for 6 samples", len(recons))
	}
}

func TestCAHSliceValidation(t *testing.T) {
	ds := data.NewSynthCIFAR100(5)
	c, h, w := ds.Shape()
	rng := nn.RandSource(5, 1)
	cah, err := NewCAH(ImageDims{C: c, H: h, W: w}, 100, 50, ds, rng, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cah.Slice(0); err == nil {
		t.Error("slice 0 accepted")
	}
	if _, err := cah.Slice(51); err == nil {
		t.Error("oversize slice accepted")
	}
	small, err := cah.Slice(10)
	if err != nil {
		t.Fatal(err)
	}
	// Prefix property: the small attack's layer is the big one's prefix.
	bw, bb := cah.Layer()
	sw, sb := small.Layer()
	for i := 0; i < 10*c*h*w; i++ {
		if sw.Data()[i] != bw.Data()[i] {
			t.Fatal("sliced weights are not a prefix")
		}
	}
	for i := 0; i < 10; i++ {
		if sb.Data()[i] != bb.Data()[i] {
			t.Fatal("sliced biases are not a prefix")
		}
	}
}

func TestCAHValidation(t *testing.T) {
	ds := data.NewSynthCIFAR100(5)
	c, h, w := ds.Shape()
	rng := nn.RandSource(5, 2)
	dims := ImageDims{C: c, H: h, W: w}
	if _, err := NewCAH(dims, 100, 0, ds, rng, 64, 8); err == nil {
		t.Error("0 neurons accepted")
	}
	if _, err := NewCAH(dims, 100, 10, ds, rng, 64, 1); err == nil {
		t.Error("batch 1 accepted")
	}
}

func TestDedupeReconstructions(t *testing.T) {
	a := imaging.NewImage(1, 2, 2)
	a.Pix[0] = 0.5
	b := a.Clone() // duplicate
	c := imaging.NewImage(1, 2, 2)
	c.Pix[3] = 0.9 // distinct
	out := DedupeReconstructions([]*imaging.Image{a, b, c}, 1e-8)
	if len(out) != 2 {
		t.Errorf("dedupe kept %d, want 2", len(out))
	}
}

func TestEvaluationStats(t *testing.T) {
	orig := imaging.NewImage(1, 2, 2)
	orig.Pix[0] = 1
	near := orig.Clone()
	near.Pix[1] = 0.01
	far := imaging.NewImage(1, 2, 2)
	far.Pix[2] = 1
	ev := Evaluate([]*imaging.Image{near, far}, []*imaging.Image{orig})
	if ev.NumReconstructions != 2 || len(ev.PSNRs) != 2 {
		t.Fatalf("eval = %+v", ev)
	}
	if ev.MaxPSNR() < ev.MeanPSNR() {
		t.Error("max < mean")
	}
	if ev.PerOriginalBest[0] != ev.MaxPSNR() {
		t.Error("per-original best should track the closest reconstruction")
	}
	empty := Evaluate(nil, []*imaging.Image{orig})
	if empty.MeanPSNR() != 0 || empty.MaxPSNR() != 0 {
		t.Error("empty evaluation should report zeros")
	}
}

func TestRatioReconstructSkipsDeadNeuron(t *testing.T) {
	dims := ImageDims{C: 1, H: 2, W: 2}
	if _, ok := ratioReconstruct(make([]float64, 4), 0, dims); ok {
		t.Error("zero bias gradient inverted")
	}
	im, ok := ratioReconstruct([]float64{1, 2, 3, 4}, 2, dims)
	if !ok {
		t.Fatal("valid neuron skipped")
	}
	if math.Abs(im.Pix[3]-1) > 1e-12 { // 4/2 = 2 clamps to 1
		t.Errorf("clamped ratio = %g", im.Pix[3])
	}
	if math.Abs(im.Pix[0]-0.5) > 1e-12 {
		t.Errorf("ratio = %g, want 0.5", im.Pix[0])
	}
}

// TestDishonestServerHooks runs the FL-integration path: the hook swaps the
// model and captures per-client reconstructions.
func TestDishonestServerHooks(t *testing.T) {
	ds := data.NewSynthCustom("hooks", 4, 1, 8, 8, 128, 6)
	dims := ImageDims{C: 1, H: 8, W: 8}
	rng := nn.RandSource(6, 1)
	rtf, err := NewRTF(dims, 4, 100, ds, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	hook, err := NewRTFServer(rtf, rng)
	if err != nil {
		t.Fatal(err)
	}
	if hook.Name() != "dishonest-rtf" {
		t.Errorf("name = %q", hook.Name())
	}

	roster := fl.NewMemoryRoster()
	roster.Add(fl.NewLocalClient("victim", ds, 4, nn.RandSource(6, 2)))
	honest := nn.NewSequential(nn.NewLinear("fc", 64, 4, nn.RandSource(6, 3)))
	server := fl.NewServer(fl.ServerConfig{Rounds: 3, LearningRate: 0.1, Seed: 6}, honest, roster)
	server.Modifier = hook
	server.Observer = hook
	if _, err := server.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	caps := hook.Captures()
	if len(caps) != 3 {
		t.Fatalf("%d captures, want 3", len(caps))
	}
	for _, cap := range caps {
		if cap.ClientID != "victim" {
			t.Errorf("capture client = %q", cap.ClientID)
		}
		if len(cap.Reconstructions) == 0 {
			t.Error("capture holds no reconstructions")
		}
	}
}

// TestObserveIgnoresForeignPayloads guards the hook against updates from
// models that are not the malicious layout.
func TestObserveIgnoresForeignPayloads(t *testing.T) {
	ds := data.NewSynthCustom("foreign", 4, 1, 8, 8, 64, 7)
	dims := ImageDims{C: 1, H: 8, W: 8}
	rng := nn.RandSource(7, 1)
	rtf, err := NewRTF(dims, 4, 50, ds, rng, 32)
	if err != nil {
		t.Fatal(err)
	}
	hook, err := NewRTFServer(rtf, rng)
	if err != nil {
		t.Fatal(err)
	}
	hook.Observe(0, fl.Update{Grads: []*tensor.Tensor{tensor.New(3)}})
	hook.Observe(0, fl.Update{Grads: []*tensor.Tensor{tensor.New(2, 2), tensor.New(3)}})
	if got := len(hook.Captures()); got != 0 {
		t.Errorf("foreign payloads produced %d captures", got)
	}
}

func TestLinearInversionClassCoverage(t *testing.T) {
	ds := data.NewSynthCustom("lin", 8, 1, 6, 6, 128, 8)
	dims := ImageDims{C: 1, H: 6, W: 6}
	rng := nn.RandSource(8, 1)
	atk := NewLinearInversion(dims, 8)
	batch, err := data.UniqueLabelBatch(ds, rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, recons, err := atk.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Only present-class rows are kept.
	if len(recons) != 4 {
		t.Errorf("%d reconstructions, want 4 (one per present class)", len(recons))
	}
}

func TestVictimGradientsClonesPayload(t *testing.T) {
	ds := data.NewSynthCustom("clone", 4, 1, 4, 4, 32, 9)
	dims := ImageDims{C: 1, H: 4, W: 4}
	rng := nn.RandSource(9, 1)
	w := tensor.New(5, 16)
	w.FillRandn(rng, 0.3)
	victim, err := NewVictim(dims, 4, w, tensor.New(5), rng)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := data.RandomBatch(ds, rng, 2)
	if err != nil {
		t.Fatal(err)
	}
	gw1, _, _ := victim.Gradients(batch)
	gw1.Fill(0) // mutating the returned tensor…
	gw2, _, _ := victim.Gradients(batch)
	if gw2.L2Norm() == 0 {
		t.Error("Gradients returned live references to parameter state")
	}
}

func TestImageDimsDim(t *testing.T) {
	if (ImageDims{C: 3, H: 4, W: 5}).Dim() != 60 {
		t.Error("Dim product")
	}
}

func ExampleRTF_Run() {
	ds := data.NewSynthCIFAR100(42)
	c, h, w := ds.Shape()
	rng := nn.RandSource(1, 2)
	rtf, _ := NewRTF(ImageDims{C: c, H: h, W: w}, ds.NumClasses(), 400, ds, rng, 128)
	batch, _ := data.RandomBatch(ds, rng, 4)
	ev, _, _ := rtf.Run(batch, batch.Images, rng)
	fmt.Println(ev.MeanPSNR() > 100) // undefended: essentially verbatim
	// Output: true
}

// TestVictimGradientsMatchFullChain pins that the RTF victim's uploaded
// malicious-layer gradients, which Sequential.Backward now computes without
// the first layer's input gradient, are bit-identical to the full per-layer
// backward chain.
func TestVictimGradientsMatchFullChain(t *testing.T) {
	ds := data.NewSynthCustom("chain", 4, 1, 8, 8, 64, 3)
	rng := nn.RandSource(42, 1)
	rtf, err := NewRTF(ImageDims{C: 1, H: 8, W: 8}, ds.NumClasses(), 32, ds, rng, 64)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := rtf.BuildVictim(rng)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := data.RandomBatch(ds, rng, 6)
	if err != nil {
		t.Fatal(err)
	}
	gw, gb, _ := victim.Gradients(batch)

	victim.Net.ZeroGrad()
	_, g := nn.SoftmaxCrossEntropy{}.Compute(victim.Net.Forward(batch.Flatten(), true), batch.Labels)
	for i := len(victim.Net.Layers) - 1; i >= 0; i-- {
		g = victim.Net.Layers[i].Backward(g)
	}
	for _, pair := range [][2]*tensor.Tensor{{gw, victim.Mal.Weight.G}, {gb, victim.Mal.Bias.G}} {
		got, want := pair[0].Data(), pair[1].Data()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("malicious gradient [%d] = %v, full chain gives %v", i, got[i], want[i])
			}
		}
	}
}
