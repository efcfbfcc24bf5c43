package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/tensor"
)

// NewQBI calibrates the quantile-based bias-initialization attack (Nowak et
// al., "QBI: Quantile-based Bias Initialization for Efficient Private Data
// Reconstruction in Federated Learning", arXiv:2406.18745).
//
// Like CAH, every malicious neuron projects the input onto an independent
// random direction r_i and aims to fire for ≈ one sample per batch so Eq. 6
// inverts its gradients verbatim. The difference is how the bias is placed:
// CAH sorts the empirical projections of the whole probe set through every
// neuron (O(neurons·probe·d)); QBI estimates each neuron's pre-activation
// distribution analytically from per-pixel probe moments,
//
//	m_i = r_i·μ,   v_i = Σ_j r_ij²·σ_j²,
//
// and sets b_i = −(m_i + z·√v_i) with z = Φ⁻¹(1 − 1/B) — one O(probe·d)
// pass over the probe data regardless of neuron count, which is what lets
// the published attack scale to wide layers.
//
// neurons sizes the layer; expectedBatch is the batch size the attacker
// anticipates.
func NewQBI(dims ImageDims, classes, neurons int, probe data.Dataset, rng *rand.Rand, probeSize, expectedBatch int) (*Imprint, error) {
	if neurons < 1 {
		return nil, fmt.Errorf("attack: QBI needs at least 1 neuron, got %d", neurons)
	}
	if expectedBatch < 2 {
		return nil, fmt.Errorf("attack: QBI expected batch must be ≥ 2, got %d", expectedBatch)
	}
	d := dims.Dim()
	w := tensor.New(neurons, d)
	w.FillRandn(rng, 1/math.Sqrt(float64(d)))

	if probeSize > probe.Len() {
		probeSize = probe.Len()
	}
	if probeSize < 1 {
		return nil, fmt.Errorf("attack: QBI needs at least 1 probe sample, got %d", probeSize)
	}
	// One pass over the probe set: per-pixel mean and variance.
	mean := make([]float64, d)
	m2 := make([]float64, d)
	for _, idx := range data.PermPrefix(rng, probe.Len(), probeSize) {
		im, _ := probe.Sample(idx)
		for j, v := range im.Pix {
			mean[j] += v
			m2[j] += v * v
		}
	}
	inv := 1.0 / float64(probeSize)
	variance := make([]float64, d)
	for j := range mean {
		mean[j] *= inv
		variance[j] = math.Max(0, m2[j]*inv-mean[j]*mean[j])
	}

	target := 1.0 / float64(expectedBatch)
	z := probitUpper(target) // Φ⁻¹(1 − target)
	b := tensor.New(neurons)
	for i := 0; i < neurons; i++ {
		row := w.RowView(i)
		m, v := 0.0, 0.0
		for j, r := range row {
			m += r * mean[j]
			v += r * r * variance[j]
		}
		b.Data()[i] = -(m + z*math.Sqrt(v))
	}
	return &Imprint{kind: "qbi", dims: dims, classes: classes, w: w, b: b, dedupe: true}, nil
}

// probitUpper returns Φ⁻¹(1 − p) for the standard normal distribution using
// the Acklam rational approximation (relative error below 1.15e-9), which is
// all the bias placement needs.
func probitUpper(p float64) float64 {
	q := 1 - p // the lower-tail probability
	// Coefficients of Acklam's approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	bb := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	dd := [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const low, high = 0.02425, 1 - 0.02425
	switch {
	case q < low:
		r := math.Sqrt(-2 * math.Log(q))
		return (((((c[0]*r+c[1])*r+c[2])*r+c[3])*r+c[4])*r + c[5]) /
			((((dd[0]*r+dd[1])*r+dd[2])*r+dd[3])*r + 1)
	case q > high:
		r := math.Sqrt(-2 * math.Log(1-q))
		return -(((((c[0]*r+c[1])*r+c[2])*r+c[3])*r+c[4])*r + c[5]) /
			((((dd[0]*r+dd[1])*r+dd[2])*r+dd[3])*r + 1)
	default:
		r := q - 0.5
		s := r * r
		return (((((a[0]*s+a[1])*s+a[2])*s+a[3])*s+a[4])*s + a[5]) * r /
			(((((bb[0]*s+bb[1])*s+bb[2])*s+bb[3])*s+bb[4])*s + 1)
	}
}
