// Package core implements the OASIS defense (paper §III-B): before a
// federated-learning client computes gradients on its local batch D, it
// expands the batch to D′ = D ∪ ⋃_t X′_t (Eq. 7), where X′_t contains
// augmented counterparts of image x_t that share the image's label.
//
// When x_t and every x′ ∈ X′_t activate the same set of neurons in a
// malicious layer, Proposition 1 shows the server can extract at best the
// *sum* of their gradients, so gradient inversion reconstructs only a linear
// combination of x_t and its transforms — an unrecognizable overlap.
//
// This package also provides the activation-set analyzer that quantifies how
// often the Proposition-1 condition holds for a given malicious layer, the
// mechanism behind the PSNR results in Figures 5, 6 and 13.
package core

import (
	"slices"

	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Defense is the OASIS batch-stage defense: it implements the protocol's
// two-stage client contract (fl.Defense) with an identity gradient stage.
//
// PreserveMean controls whether each transformed copy is shifted so its mean
// pixel value equals the original's. Exact major rotations and flips already
// preserve the mean; shearing and minor rotation vacate pixels (zero fill)
// and would otherwise lower it. The paper's mechanism for defeating the RTF
// attack is precisely that the transforms "impose minimal change" to the
// scalar quantity the attacked neurons measure (§IV-B); restoring the mean —
// itself a standard photometric augmentation — enforces that property
// exactly for every geometric transform, making the Proposition-1 condition
// hold by construction for scalar-measurement imprint layers.
type Defense struct {
	Policy       augment.Policy
	PreserveMean bool
}

// New constructs an OASIS defense with the given augmentation policy and
// mean preservation enabled.
func New(policy augment.Policy) *Defense {
	return &Defense{Policy: policy, PreserveMean: true}
}

// ApplyBatch expands batch D into D′ per Eq. 7: the original samples
// followed by every transformed counterpart, each labeled as its source
// image. A nil Policy is the "WO" baseline and returns b itself. The input
// batch is not mutated.
func (d *Defense) ApplyBatch(b *data.Batch) *data.Batch {
	if d.Policy == nil {
		return b
	}
	out := &data.Batch{Images: slices.Clone(b.Images), Labels: slices.Clone(b.Labels)}
	for t, im := range b.Images {
		for _, tr := range d.Policy.Expand(im) {
			if d.PreserveMean {
				shiftMean(tr, im.Mean())
			}
			out.Append(tr, b.Labels[t])
		}
	}
	return out
}

// ApplyGrads is a no-op: OASIS acts on the batch only.
func (d *Defense) ApplyGrads([]*tensor.Tensor) {}

// shiftMean adds a constant so im's mean equals target.
func shiftMean(im *imaging.Image, target float64) {
	delta := target - im.Mean()
	for i := range im.Pix {
		im.Pix[i] += delta
	}
}

// Name returns the policy label (paper table notation), or "WO" when no
// policy is configured.
func (d *Defense) Name() string {
	if d.Policy == nil {
		return "WO"
	}
	return d.Policy.Name()
}

// ActivationSets returns, for each row x of inputs [B, d], the boolean
// activation pattern of the malicious layer ReLU(W·x + b): element i is true
// iff neuron i fires. W is [n, d] and bias is [n].
func ActivationSets(w *tensor.Tensor, bias *tensor.Tensor, inputs *tensor.Tensor) [][]bool {
	bN := inputs.Dim(0)
	n := w.Dim(0)
	// One batched inputs·Wᵀ product instead of per-row dot products: the
	// blocked kernel amortizes W across the whole batch (the row-at-a-time
	// loop re-streamed all of W per image). Each element is the same dot
	// product the per-row path computed, so the sets are unchanged.
	z := tensor.MatMulTransB(inputs, w) // [B, n]
	bd := bias.Data()
	out := make([][]bool, bN)
	for j := 0; j < bN; j++ {
		zrow := z.RowView(j)
		row := make([]bool, n)
		for i := range zrow {
			row[i] = zrow[i]+bd[i] > 0
		}
		out[j] = row
	}
	z.Release()
	return out
}

// Prop1Report quantifies how well a defense satisfies the Proposition-1
// condition against a concrete malicious layer.
type Prop1Report struct {
	Policy string
	// SameSetFraction is the fraction of original images x_t for which at
	// least one x′ ∈ X′_t activates *exactly* the same neuron set.
	SameSetFraction float64
	// MeanJaccard is the mean Jaccard similarity between the activation
	// set of x_t and the closest activation set among X′_t.
	MeanJaccard float64
	// SoloNeuronFraction is the fraction of original images that are the
	// sole activator of at least one neuron within D′ — exactly the
	// condition under which Eq. 6 reveals the image verbatim.
	SoloNeuronFraction float64
}

// AnalyzeProp1 applies the defense to the batch, computes activation sets of
// the malicious layer over D′, and reports the Proposition-1 statistics. A
// nil-policy defense (WO) is allowed and reports on the raw batch.
func AnalyzeProp1(d *Defense, b *data.Batch, w, bias *tensor.Tensor) (Prop1Report, error) {
	expanded := d.ApplyBatch(b)
	x := expanded.Flatten()
	sets := ActivationSets(w, bias, x)
	x.Release()
	orig := b.Size()
	total := expanded.Size()
	kPer := 0
	if d.Policy != nil && orig > 0 {
		kPer = (total - orig) / orig // transforms per original, appended in order
	}

	report := Prop1Report{Policy: d.Name()}
	n := w.Dim(0)
	// Count activators per neuron over the whole D′.
	activators := make([]int, n)
	for _, set := range sets {
		for i, on := range set {
			if on {
				activators[i]++
			}
		}
	}
	sameSet := 0
	sumJaccard := 0.0
	solo := 0
	for t := 0; t < orig; t++ {
		// x_t's transforms occupy rows orig + t*kPer … orig + (t+1)*kPer.
		bestJ := 0.0
		exact := false
		for k := 0; k < kPer; k++ {
			j := jaccard(sets[t], sets[orig+t*kPer+k])
			if j > bestJ {
				bestJ = j
			}
			if j == 1.0 {
				exact = true
			}
		}
		if kPer == 0 {
			bestJ = 0
		}
		if exact {
			sameSet++
		}
		sumJaccard += bestJ
		for i, on := range sets[t] {
			if on && activators[i] == 1 {
				solo++
				break
			}
		}
	}
	if orig > 0 {
		report.SameSetFraction = float64(sameSet) / float64(orig)
		report.MeanJaccard = sumJaccard / float64(orig)
		report.SoloNeuronFraction = float64(solo) / float64(orig)
	}
	return report, nil
}

func jaccard(a, b []bool) float64 {
	inter, union := 0, 0
	for i := range a {
		if a[i] && b[i] {
			inter++
		}
		if a[i] || b[i] {
			union++
		}
	}
	if union == 0 {
		return 1 // both inactive everywhere: identical sets
	}
	return float64(inter) / float64(union)
}
