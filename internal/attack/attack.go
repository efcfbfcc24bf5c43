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

// ImageDims carries the raster geometry needed to fold flat gradient rows
// back into images.
type ImageDims struct {
	C, H, W int
}

// Dim returns the flattened input dimensionality C*H*W.
func (d ImageDims) Dim() int { return d.C * d.H * d.W }

// Victim is the model a dishonest server hands to a client: a malicious
// fully-connected layer placed directly after the input (the strongest
// placement per the paper's threat model), a ReLU, and a benign
// classification head.
type Victim struct {
	Net     *nn.Sequential
	Mal     *nn.Linear
	Dims    ImageDims
	Classes int
}

// NewVictim assembles a victim model around a planted malicious layer
// (W [n×d], b [n]). The head is built with identical columns so that
// ∂L/∂z_i is the same for every neuron i of one sample — the construction
// both published attacks use so that per-neuron gradient arithmetic isolates
// samples cleanly.
func NewVictim(dims ImageDims, classes int, w, b *tensor.Tensor, rng *rand.Rand) (*Victim, error) {
	return NewVictimGain(dims, classes, w, b, rng, 1)
}

// NewVictimGain is NewVictim with an explicit head gain. Gain multiplies the
// head columns, which scales ∂L/∂z_i — and therefore the malicious layer's
// share of the (clipped) gradient norm — without changing the inversion
// arithmetic (Eq. 6 ratios are scale-invariant). A dishonest server raises
// the gain to survive DP-style gradient noise; the dp ablation quantifies
// this arms race.
func NewVictimGain(dims ImageDims, classes int, w, b *tensor.Tensor, rng *rand.Rand, gain float64) (*Victim, error) {
	if w.Dim(1) != dims.Dim() {
		return nil, fmt.Errorf("attack: malicious layer width %d != input dim %d", w.Dim(1), dims.Dim())
	}
	if gain <= 0 {
		return nil, fmt.Errorf("attack: head gain %g must be positive", gain)
	}
	n := w.Dim(0)
	mal, err := nn.NewLinearFrom("malicious", w, b)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	// Head with identical columns: headW[k][i] = gain·v[k]/n.
	headW := tensor.New(classes, n)
	for k := 0; k < classes; k++ {
		v := rng.NormFloat64() * gain
		row := headW.RowView(k)
		for i := range row {
			row[i] = v / float64(n)
		}
	}
	head, err := nn.NewLinearFrom("head", headW, tensor.New(classes))
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	return &Victim{
		Net:     nn.NewSequential(mal, nn.NewReLU("malicious.relu"), head),
		Mal:     mal,
		Dims:    dims,
		Classes: classes,
	}, nil
}

// Gradients runs one local training step on the batch exactly as an honest
// FL client would and returns the malicious layer's weight and bias
// gradients — the payload the dishonest server inverts. The returned loss is
// the client's training loss.
func (v *Victim) Gradients(b *data.Batch) (gw, gb *tensor.Tensor, loss float64) {
	v.Net.ZeroGrad()
	x := b.Flatten()
	logits := v.Net.Forward(x, true)
	loss, g := nn.SoftmaxCrossEntropy(logits, b.Labels)
	v.Net.Backward(g)
	x.Release()
	return v.Mal.Weight.G.Clone(), v.Mal.Bias.G.Clone(), loss
}

// VectorToImage folds a flat reconstruction vector into a clamped image.
func VectorToImage(vec []float64, dims ImageDims) (*imaging.Image, error) {
	im, err := imaging.FromVector(vec, dims.C, dims.H, dims.W)
	if err != nil {
		return nil, err
	}
	return im.Clamp(), nil
}

// gradEps is the threshold below which a bias gradient is treated as zero
// (no sample activated the neuron/bin).
const gradEps = 1e-12

// DedupeReconstructions drops reconstructions that are near-duplicates
// (MSE below tol) of an earlier one; trap-weight attacks frequently recover
// the same sample through several neurons.
func DedupeReconstructions(recons []*imaging.Image, tol float64) []*imaging.Image {
	var out []*imaging.Image
	for _, r := range recons {
		dup := false
		for _, seen := range out {
			if imaging.MSE(r, seen) < tol {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, r)
		}
	}
	return out
}

// Evaluation summarizes attack success against the original (pre-defense)
// batch, following the paper's protocol: each reconstruction is matched to
// its best-PSNR original.
type Evaluation struct {
	// PSNRs holds one entry per reconstruction: the PSNR against its
	// best-matching original.
	PSNRs []float64
	// PerOriginalBest holds, for every original image, the best PSNR any
	// reconstruction achieved against it (0 when nothing matched).
	PerOriginalBest []float64
	// NumReconstructions is len(PSNRs).
	NumReconstructions int
}

// MeanPSNR is the paper's headline metric: the average PSNR over the images
// reconstructed by the attack. It returns 0 when nothing was reconstructed.
func (e Evaluation) MeanPSNR() float64 {
	if len(e.PSNRs) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range e.PSNRs {
		s += p
	}
	return s / float64(len(e.PSNRs))
}

// MaxPSNR returns the single best reconstruction quality — the worst-case
// privacy leak.
func (e Evaluation) MaxPSNR() float64 {
	m := 0.0
	for _, p := range e.PSNRs {
		if p > m {
			m = p
		}
	}
	return m
}

// Evaluate matches reconstructions against originals and computes PSNRs.
func Evaluate(recons []*imaging.Image, originals []*imaging.Image) Evaluation {
	ev := Evaluation{
		PerOriginalBest:    make([]float64, len(originals)),
		NumReconstructions: len(recons),
	}
	for _, r := range recons {
		idx, p := imaging.BestMatch(r, originals)
		ev.PSNRs = append(ev.PSNRs, p)
		if idx >= 0 && p > ev.PerOriginalBest[idx] {
			ev.PerOriginalBest[idx] = p
		}
	}
	return ev
}

// ratioReconstruct converts a (row of ∂W, scalar ∂b) pair into an image when
// the bias gradient is usable.
func ratioReconstruct(gwRow []float64, gb float64, dims ImageDims) (*imaging.Image, bool) {
	if math.Abs(gb) < gradEps {
		return nil, false
	}
	vec := make([]float64, len(gwRow))
	inv := 1 / gb
	for i, v := range gwRow {
		vec[i] = v * inv
	}
	im, err := VectorToImage(vec, dims)
	if err != nil {
		return nil, false
	}
	return im, true
}
