package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"sort"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/tensor"
)

// NewRTF calibrates the "Robbing the Fed" imprint attack (Fowl et al., ICLR
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
//
// The thresholds are the empirical quantiles of mean brightness over the
// probe dataset (the attacker's public data), covering the central mass of
// the distribution. Every weight row is (1/d, …, 1/d) and bias_i = −c_i.
func NewRTF(dims ImageDims, classes, neurons int, probe data.Dataset, rng *rand.Rand, probeSize int) (*Imprint, error) {
	if neurons < 2 {
		return nil, fmt.Errorf("attack: RTF needs at least 2 neurons, got %d", neurons)
	}
	if probeSize > probe.Len() {
		probeSize = probe.Len()
	}
	means := make([]float64, 0, probeSize)
	for _, idx := range data.PermPrefix(rng, probe.Len(), probeSize) {
		im, _ := probe.Sample(idx)
		means = append(means, im.Mean())
	}
	sort.Float64s(means)
	b := tensor.New(neurons)
	c := b.Data() // thresholds c_i, negated into biases below
	for i := range c {
		q := (float64(i) + 0.5) / float64(neurons)
		c[i] = quantile(means, q)
	}
	// Enforce strictly ascending edges (duplicated probe values would
	// otherwise create empty zero-width bins that break the differencing).
	for i := 1; i < neurons; i++ {
		if c[i] <= c[i-1] {
			c[i] = c[i-1] + 1e-12
		}
	}
	for i := range c {
		c[i] = -c[i]
	}
	return &Imprint{kind: "rtf", dims: dims, classes: classes, b: b, group: neurons}, nil
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
