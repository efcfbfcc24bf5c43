package attack

import (
	"fmt"
	rand "math/rand/v2"
	"sort"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/tensor"
)

// DefaultLOKIScale is the kernel amplification γ the registry constructor
// uses: large enough that the malicious layer dominates the uploaded
// gradient (the "model manipulation" knob of the published attack, which is
// what lets it survive norm-bounding defenses), small enough not to blow up
// training numerics.
const DefaultLOKIScale = 4.0

// lokiTargetBins is the preferred number of quantile bins per measurement
// group; the constructor splits the neuron budget into groups of roughly
// this size.
const lokiTargetBins = 8

// NewLOKI calibrates a scaled identity/kernel-manipulation attack in the style
// of Zhao et al., "LOKI: Large-scale Data Reconstruction Attack against
// Federated Learning through Model Manipulation" (arXiv:2303.12233).
//
// The published attack scales reconstruction to large sampled populations by
// giving clients structurally manipulated models (convolutional identity
// kernels plus customized dense layers) so per-client leakage stays
// separable. This reproduction keeps the two load-bearing ideas in the
// repo's fully-connected substrate:
//
//   - Kernel diversity: the planted neurons are split into groups, each
//     measuring the scaled mean over a different random pixel subset (a
//     random "kernel"). Samples — and sampled clients — that collide under
//     one scalar measurement (the RTF failure mode at population scale) are
//     separated by another group, so coverage grows with the neuron budget
//     instead of saturating.
//   - Scaling: every kernel is amplified by γ (scale), inflating the
//     malicious layer's share of the uploaded gradient norm. Inversion is
//     unaffected (the Eq. 6 ratio is scale-invariant) but norm-clipping
//     style defenses spend their budget on the planted layer.
//
// The neuron budget is split into groups of ~lokiTargetBins quantile bins,
// and each group draws a random half-support pixel kernel. Within a group,
// biases sit at empirical quantiles of the group's measurement over the
// probe set and adjacent-bin gradient differencing inverts occupied bins,
// exactly as in RTF. The decoder de-duplicates across groups: different
// kernels frequently recover the same sample, which is the point.
func NewLOKI(dims ImageDims, classes, neurons int, probe data.Dataset, rng *rand.Rand, probeSize int, scale float64) (*Imprint, error) {
	if neurons < 2 {
		return nil, fmt.Errorf("attack: LOKI needs at least 2 neurons, got %d", neurons)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("attack: LOKI scale %g must be positive", scale)
	}
	// With neurons ≥ 2, groups = max(1, n/8) always leaves bins = n/groups
	// ≥ 2: small budgets collapse to one group, large ones keep ~8 bins.
	groups := max(1, neurons/lokiTargetBins)
	bins := neurons / groups
	d := dims.Dim()
	kernel := max(1, d/2)

	masks := make([][]int, groups)
	for g := range masks {
		m := data.PermPrefix(rng, d, kernel)
		sort.Ints(m)
		masks[g] = m
	}

	if probeSize > probe.Len() {
		probeSize = probe.Len()
	}
	// One pass over the probe set: every group's scaled kernel measurement.
	projs := make([][]float64, groups)
	for g := range projs {
		projs[g] = make([]float64, 0, probeSize)
	}
	for _, idx := range data.PermPrefix(rng, probe.Len(), probeSize) {
		im, _ := probe.Sample(idx)
		for g, mask := range masks {
			s := 0.0
			for _, j := range mask {
				s += im.Pix[j]
			}
			projs[g] = append(projs[g], scale*s/float64(len(mask)))
		}
	}

	total := groups * bins
	w := tensor.New(total, d)
	b := tensor.New(total)
	amp := scale / float64(kernel)
	for g, mask := range masks {
		sort.Float64s(projs[g])
		for i := 0; i < bins; i++ {
			row := w.RowView(g*bins + i)
			for _, j := range mask {
				row[j] = amp
			}
			c := quantile(projs[g], (float64(i)+0.5)/float64(bins))
			// Strictly ascending edges within the group (duplicated probe
			// values would create empty zero-width bins that break the
			// differencing).
			if i > 0 {
				prev := -b.Data()[g*bins+i-1]
				if c <= prev {
					c = prev + 1e-12
				}
			}
			b.Data()[g*bins+i] = -c
		}
	}
	return &Imprint{kind: "loki", dims: dims, classes: classes, w: w, b: b, group: bins, dedupe: true}, nil
}
