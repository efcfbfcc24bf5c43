package defense

import (
	"errors"
	"fmt"
	"math"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/tensor"
)

// DPSGD clips the global gradient norm to Clip and adds Gaussian noise with
// standard deviation Sigma·Clip to every coordinate.
type DPSGD struct {
	Clip  float64
	Sigma float64
	Rng   *rand.Rand
}

var _ Defense = (*DPSGD)(nil)

// NewDPSGD constructs the defense; clip must be finite and positive, sigma
// finite and non-negative, and the noise scale sigma·clip finite (1e200 each
// would turn every uploaded coordinate into ±Inf).
func NewDPSGD(clip, sigma float64, rng *rand.Rand) (*DPSGD, error) {
	if math.IsNaN(clip) || math.IsInf(clip, 0) || clip <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0 ||
		math.IsInf(sigma*clip, 0) {
		return nil, fmt.Errorf("defense: DPSGD needs finite clip > 0, finite sigma ≥ 0 and a finite noise scale sigma·clip, got clip=%g sigma=%g", clip, sigma)
	}
	return &DPSGD{Clip: clip, Sigma: sigma, Rng: rng}, nil
}

// ApplyBatch is the identity: DPSGD acts on the gradients only.
func (d *DPSGD) ApplyBatch(b *data.Batch) *data.Batch { return b }

// ApplyGrads clips the joint norm and perturbs every gradient coordinate.
func (d *DPSGD) ApplyGrads(grads []*tensor.Tensor) {
	norm := 0.0
	for _, g := range grads {
		n := g.L2Norm()
		norm += n * n
	}
	norm = math.Sqrt(norm)
	scale := 1.0
	if norm > d.Clip {
		scale = d.Clip / norm
	}
	std := d.Sigma * d.Clip
	for _, g := range grads {
		gd := g.Data()
		for i := range gd {
			gd[i] = gd[i]*scale + d.Rng.NormFloat64()*std
		}
	}
}

// Name returns a label including the noise multiplier.
func (d *DPSGD) Name() string { return fmt.Sprintf("dpsgd(σ=%g)", d.Sigma) }

// Pruning zeroes all but the largest-magnitude fraction Keep of gradient
// coordinates (global top-k sparsification).
type Pruning struct {
	Keep float64 // fraction of coordinates kept, in (0, 1]
}

var _ Defense = (*Pruning)(nil)

// NewPruning constructs the defense; keep must be in (0, 1].
func NewPruning(keep float64) (*Pruning, error) {
	if math.IsNaN(keep) || keep <= 0 || keep > 1 {
		return nil, fmt.Errorf("defense: pruning keep fraction %g outside (0,1]", keep)
	}
	return &Pruning{Keep: keep}, nil
}

// ApplyBatch is the identity: pruning acts on the gradients only.
func (p *Pruning) ApplyBatch(b *data.Batch) *data.Batch { return b }

// ApplyGrads zeroes every coordinate below the global magnitude threshold.
// The threshold is the k-th smallest magnitude (k = total·(1−Keep)), found
// by quickselect in O(total) instead of a full O(total·log total) sort — the
// same cut a sort would yield, so the output is identical.
func (p *Pruning) ApplyGrads(grads []*tensor.Tensor) {
	if p.Keep >= 1 {
		return
	}
	total := 0
	for _, g := range grads {
		total += g.Len()
	}
	if total == 0 {
		return
	}
	mags := make([]float64, 0, total)
	for _, g := range grads {
		for _, v := range g.Data() {
			mags = append(mags, math.Abs(v))
		}
	}
	// A Keep small enough that 1−Keep rounds to 1.0 would index past the
	// end; clamping keeps the largest coordinate as the cut instead.
	k := min(int(float64(total)*(1-p.Keep)), total-1)
	cut := quickselect(mags, k)
	for _, g := range grads {
		gd := g.Data()
		for i, v := range gd {
			if math.Abs(v) < cut {
				gd[i] = 0
			}
		}
	}
}

// quickselect returns the k-th smallest element (0-indexed) of a, partially
// reordering it in place. Median-of-three pivoting keeps the deterministic
// adversarial shapes (sorted, reversed, constant) near O(n), and the
// three-way partition collapses the massive magnitude ties that pruned or
// sparse gradients produce in a single round.
func quickselect(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j, n := lo, lo, hi
		for j <= n {
			switch {
			case a[j] < pivot:
				a[i], a[j] = a[j], a[i]
				i++
				j++
			case a[j] > pivot:
				a[j], a[n] = a[n], a[j]
				n--
			default:
				j++
			}
		}
		// a[i..n] all equal pivot now; recurse into one side only.
		switch {
		case k < i:
			hi = i - 1
		case k > n:
			lo = n + 1
		default:
			return pivot
		}
	}
	return a[lo]
}

// Name returns a label including the keep fraction.
func (p *Pruning) Name() string { return fmt.Sprintf("prune(keep=%g)", p.Keep) }

// ErrNoPolicy is returned when ATS is constructed without a policy.
var ErrNoPolicy = errors.New("defense: ATS requires an augmentation policy")

// ATS is the transformation-replacement defense of Gao et al. [41]: every
// image in the batch is replaced with one transformed version of itself.
// Unlike OASIS it does not add the original alongside, so a malicious neuron
// activated solely by the transformed image still reconstructs it perfectly
// (Figure 14).
type ATS struct {
	Policy augment.Policy
	Rng    *rand.Rand
}

var _ Defense = (*ATS)(nil)

// NewATS constructs the replacement defense.
func NewATS(policy augment.Policy, rng *rand.Rand) (*ATS, error) {
	if policy == nil {
		return nil, ErrNoPolicy
	}
	return &ATS{Policy: policy, Rng: rng}, nil
}

// ApplyBatch returns a new batch where each image is one randomly chosen
// transform of the original.
func (a *ATS) ApplyBatch(b *data.Batch) *data.Batch {
	out := &data.Batch{}
	for i, im := range b.Images {
		variants := a.Policy.Expand(im)
		pick := variants[a.Rng.IntN(len(variants))]
		out.Append(pick, b.Labels[i])
	}
	return out
}

// ApplyGrads is a no-op: ATS acts on the batch only.
func (a *ATS) ApplyGrads([]*tensor.Tensor) {}

// Name returns the defense label.
func (a *ATS) Name() string { return "ats(" + a.Policy.Name() + ")" }
