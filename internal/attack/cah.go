package attack

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"sort"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/tensor"
)

// NewCAH calibrates the "Curious Abandon Honesty" trap-weight attack
// (Boenisch et al., EuroS&P 2023; paper reference [17]).
//
// Each malicious neuron projects the input onto an independent random
// direction r_i; its bias is calibrated (from the attacker's public data) so
// the neuron fires for a target fraction of samples — the attack aims for
// roughly one activation per neuron per batch so that Eq. 6 inverts the
// neuron's gradients to a verbatim training image. Neurons hit by several
// samples reconstruct only their weighted mean, which is how OASIS (more
// samples per batch + transforms correlated with their originals) destroys
// reconstruction quality.
//
// expectedBatch is the batch size the attacker anticipates; the bias of
// every neuron is the (1 − 1/expectedBatch) quantile of its projection
// distribution over the probe set.
func NewCAH(dims ImageDims, classes, neurons int, probe data.Dataset, rng *rand.Rand, probeSize, expectedBatch int) (*Imprint, error) {
	if neurons < 1 {
		return nil, fmt.Errorf("attack: CAH needs at least 1 neuron, got %d", neurons)
	}
	if expectedBatch < 2 {
		return nil, fmt.Errorf("attack: CAH expected batch must be ≥ 2, got %d", expectedBatch)
	}
	d := dims.Dim()
	w := tensor.New(neurons, d)
	w.FillRandn(rng, 1/math.Sqrt(float64(d)))

	if probeSize > probe.Len() {
		probeSize = probe.Len()
	}
	// Project the probe set through every trap direction to place biases.
	probeVecs := make([][]float64, 0, probeSize)
	for _, idx := range data.PermPrefix(rng, probe.Len(), probeSize) {
		im, _ := probe.Sample(idx)
		probeVecs = append(probeVecs, im.Pix)
	}
	target := 1.0 / float64(expectedBatch)
	b := tensor.New(neurons)
	projs := make([]float64, len(probeVecs))
	for i := 0; i < neurons; i++ {
		row := w.RowView(i)
		for j, pv := range probeVecs {
			s := 0.0
			for k, v := range row {
				s += v * pv[k]
			}
			projs[j] = s
		}
		sort.Float64s(projs)
		theta := quantile(projs, 1-target)
		b.Data()[i] = -theta
	}
	return &Imprint{kind: "cah", dims: dims, classes: classes, w: w, b: b, dedupe: true}, nil
}
