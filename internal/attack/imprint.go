package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Imprint is a calibrated planted-layer attack: the malicious
// fully-connected layer z = Wx + b a dishonest server places right after the
// input, and the decoder that inverts its uploaded gradients. RTF, CAH, QBI
// and LOKI are all Imprints; their constructors differ only in how they
// calibrate w and b and which of two decoders they pick:
//
//   - adjacent bins (group > 0): each run of group rows holds the ascending
//     quantile bins of one scalar measurement, and the difference of
//     adjacent rows isolates one bin's samples. RTF is one group; LOKI is
//     many.
//   - per neuron (group == 0): Eq. 6 inverts every neuron on its own. CAH
//     and QBI decode this way.
type Imprint struct {
	kind    string
	dims    ImageDims
	classes int
	// w is the [n×d] weight. nil means every row is the mean measurement
	// (1/d, …, 1/d), which Layer fills in, so RTF keeps no dense copy
	// beside the one it dispatches.
	w *tensor.Tensor
	b *tensor.Tensor // [n]
	// group is the bin decoder's group size; 0 selects the per-neuron
	// decoder.
	group int
	// dedupe drops near-duplicate reconstructions: every decoder but RTF's
	// can recover one sample through several rows.
	dedupe bool
}

// Name returns the registry kind ("rtf", "cah", "qbi" or "loki").
func (a *Imprint) Name() string { return a.kind }

// neurons is the planted layer's width n.
func (a *Imprint) neurons() int { return a.b.Dim(0) }

// Layer returns copies of the malicious parameters.
func (a *Imprint) Layer() (w, b *tensor.Tensor) {
	if a.w != nil {
		return a.w.Clone(), a.b.Clone()
	}
	d := a.dims.Dim()
	w = tensor.New(a.neurons(), d)
	w.Fill(1 / float64(d))
	return w, a.b.Clone()
}

// BuildVictim assembles the full malicious model the server would dispatch.
func (a *Imprint) BuildVictim(rng *rand.Rand) (*Victim, error) {
	w, b := a.Layer()
	return NewVictim(a.dims, a.classes, w, b, rng)
}

// Reconstruct inverts uploaded gradients (gw [n×d], gb [n]) into images
// with the attack's decoder.
func (a *Imprint) Reconstruct(gw, gb *tensor.Tensor) []*imaging.Image {
	n := a.neurons()
	if gw.Dim(0) != n || gb.Dim(0) != n {
		panic(fmt.Sprintf("attack: %s gradients %vx%v do not match %d neurons", a.kind, gw.Shape(), gb.Shape(), n))
	}
	var out []*imaging.Image
	if a.group == 0 {
		gbd := gb.Data()
		for i := 0; i < n; i++ {
			if im, ok := ratioReconstruct(gw.RowView(i), gbd[i], a.dims); ok {
				out = append(out, im)
			}
		}
	} else {
		diff := make([]float64, a.dims.Dim())
		for base := 0; base < n; base += a.group {
			out = reconstructBins(out, gw, gb.Data(), base, a.group, a.dims, diff)
		}
	}
	if a.dedupe {
		return DedupeReconstructions(out, 1e-8)
	}
	return out
}

// Run executes the complete attack against a (possibly defended) batch: the
// victim model is built, client gradients are computed on clientBatch, and
// the reconstructions are evaluated against originals — the paper's
// measurement loop for Figures 3–6.
func (a *Imprint) Run(clientBatch *data.Batch, originals []*imaging.Image, rng *rand.Rand) (Evaluation, []*imaging.Image, error) {
	victim, err := a.BuildVictim(rng)
	if err != nil {
		return Evaluation{}, nil, err
	}
	gw, gb, _ := victim.Gradients(clientBatch)
	recons := a.Reconstruct(gw, gb)
	return Evaluate(recons, originals), recons, nil
}

// Slice derives a smaller attack from the first n neurons. Only per-neuron
// layers (CAH, QBI) slice: their rows are i.i.d., so a prefix of a
// calibrated layer is itself a calibrated layer, and neuron-count sweeps
// (Figure 4) reuse one expensive calibration. A prefix of quantile bins is
// not, so bin layers return an error.
func (a *Imprint) Slice(n int) (*Imprint, error) {
	if a.group != 0 {
		return nil, fmt.Errorf("attack: %s layer cannot be sliced: a prefix of its quantile bins is not calibrated", a.kind)
	}
	if n < 1 || n > a.neurons() {
		return nil, fmt.Errorf("attack: %s slice %d outside [1,%d]", a.kind, n, a.neurons())
	}
	d := a.dims.Dim()
	s := *a
	s.w = tensor.New(n, d)
	copy(s.w.Data(), a.w.Data()[:n*d])
	s.b = tensor.New(n)
	copy(s.b.Data(), a.b.Data()[:n])
	return &s, nil
}

// reconstructBins appends to out the images in bins base … base+bins−1 of
// an adjacent-bin layer: bin i's sample is the difference of rows i and
// i+1, and the top bin's is its own row. An empty bin fails
// ratioReconstruct's first check on its bias difference alone, so it is
// skipped before its row difference is formed in diff, a scratch row of
// dims.Dim() values.
func reconstructBins(out []*imaging.Image, gw *tensor.Tensor, gb []float64, base, bins int, dims ImageDims, diff []float64) []*imaging.Image {
	top := base + bins - 1
	for i := base; i < top; i++ {
		db := gb[i] - gb[i+1]
		if math.Abs(db) < gradEps {
			continue
		}
		rowI, rowN := gw.RowView(i), gw.RowView(i+1)
		for k := range diff {
			diff[k] = rowI[k] - rowN[k]
		}
		if im, ok := ratioReconstruct(diff, db, dims); ok {
			out = append(out, im)
		}
	}
	// Top bin: samples above the last threshold.
	if im, ok := ratioReconstruct(gw.RowView(top), gb[top], dims); ok {
		out = append(out, im)
	}
	return out
}
