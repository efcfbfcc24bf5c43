package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"sort"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

// RTF implements the "Robbing the Fed" imprint attack (Fowl et al., ICLR
// 2022; paper reference [18]).
//
// Every malicious neuron computes z_i = h(x) − c_i where h(x) = mean pixel
// brightness and c_1 < … < c_n are thresholds placed at quantiles of the
// brightness distribution, which the attacker estimates from public data. A
// sample with brightness h activates exactly the neurons {i : c_i < h}, so
// the difference between adjacent neurons' gradients isolates the samples in
// brightness bin (c_i, c_{i+1}]:
//
//	x̂ = (∂W_i − ∂W_{i+1}) / (∂b_i − ∂b_{i+1})
//
// which is a verbatim copy when the bin holds a single sample. OASIS defeats
// this by inserting mean-preserving transforms of every sample into its bin.
type RTF struct {
	Neurons    int
	Dims       ImageDims
	Classes    int
	Thresholds []float64 // ascending bin edges c_i
}

// Name returns the registry kind "rtf".
func (a *RTF) Name() string { return "rtf" }

// NewRTF calibrates an RTF attack: thresholds are the empirical quantiles of
// mean brightness over the probe dataset (the attacker's public data),
// covering the central mass of the distribution.
func NewRTF(dims ImageDims, classes, neurons int, probe data.Dataset, rng *rand.Rand, probeSize int) (*RTF, error) {
	if neurons < 2 {
		return nil, fmt.Errorf("attack: RTF needs at least 2 neurons, got %d", neurons)
	}
	if probeSize > probe.Len() {
		probeSize = probe.Len()
	}
	means := make([]float64, 0, probeSize)
	for _, idx := range rng.Perm(probe.Len())[:probeSize] {
		im, _ := probe.Sample(idx)
		means = append(means, im.Mean())
	}
	sort.Float64s(means)
	thresholds := make([]float64, neurons)
	for i := range thresholds {
		q := (float64(i) + 0.5) / float64(neurons)
		thresholds[i] = quantile(means, q)
	}
	// Enforce strictly ascending edges (duplicated probe values would
	// otherwise create empty zero-width bins that break the differencing).
	for i := 1; i < neurons; i++ {
		if thresholds[i] <= thresholds[i-1] {
			thresholds[i] = thresholds[i-1] + 1e-12
		}
	}
	return &RTF{Neurons: neurons, Dims: dims, Classes: classes, Thresholds: thresholds}, nil
}

// quantile returns the q-quantile of sorted values with linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Layer materializes the malicious layer parameters: every weight row is the
// mean-measurement vector (1/d, …, 1/d) and bias_i = −c_i.
func (a *RTF) Layer() (w, b *tensor.Tensor) {
	d := a.Dims.Dim()
	w = tensor.New(a.Neurons, d)
	inv := 1.0 / float64(d)
	wd := w.Data()
	for i := range wd {
		wd[i] = inv
	}
	b = tensor.New(a.Neurons)
	for i, c := range a.Thresholds {
		b.Data()[i] = -c
	}
	return w, b
}

// BuildVictim assembles the full malicious model the server would dispatch.
func (a *RTF) BuildVictim(rng *rand.Rand) (*Victim, error) {
	w, b := a.Layer()
	return NewVictim(a.Dims, a.Classes, w, b, rng)
}

// Reconstruct inverts uploaded gradients into images using adjacent-bin
// differencing. gw is [n×d], gb is [n].
func (a *RTF) Reconstruct(gw, gb *tensor.Tensor) []*imaging.Image {
	if gw.Dim(0) != a.Neurons || gb.Dim(0) != a.Neurons {
		panic(fmt.Sprintf("attack: RTF gradients %vx%v do not match %d neurons", gw.Shape(), gb.Shape(), a.Neurons))
	}
	return reconstructBins(nil, gw, gb.Data(), 0, a.Neurons, a.Dims, make([]float64, a.Dims.Dim()))
}

// Run executes the complete attack against a (possibly defended) batch: the
// victim model is built, client gradients are computed on clientBatch, and
// the reconstructions are evaluated against originals — the paper's
// measurement loop for Figures 3 and 5.
func (a *RTF) Run(clientBatch *data.Batch, originals []*imaging.Image, rng *rand.Rand) (Evaluation, []*imaging.Image, error) {
	return runPlanted(a, clientBatch, originals, rng)
}
