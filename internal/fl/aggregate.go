package fl

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/oasisfl/oasis/internal/tensor"
)

// Aggregator folds the selected clients' updates of one round into the
// aggregated gradient ḡ the server applies as wᵗ⁺¹ = wᵗ − η·ḡ.
//
// Contract:
//
//   - The server calls Reset once at the start of every round, then Add once
//     per successful client update in deterministic client-selection order,
//     then Finalize exactly once. Streaming implementations (mean, norm
//     clipping) fold each update immediately; robust statistics (median,
//     trimmed mean) may buffer until Finalize.
//   - A round whose aggregate cannot be applied gets Reset only: no Add and
//     no Finalize. That is a round whose first update's shapes do not match
//     the global model's parameters, as when a dishonest server swapped the
//     dispatched model. The server checks the later updates' shapes itself,
//     so a mismatch still aborts the round, but nothing else Add would
//     reject does: a non-finite update does not abort a normclip round
//     that applies nothing to the global model.
//   - Add must not mutate or retain u.Grads: the UpdateObserver has seen
//     the same tensors, and the server releases them to the tensor arena
//     once Add returns. Clone before folding in place.
//   - Add reports a shape mismatch against the first update of the round as
//     an error; the round aborts on it.
//   - Finalize returns tensors the caller owns. The aggregator keeps no
//     reference to them, so the caller may modify them or Release them to
//     the tensor arena, and a later round on the same aggregator does not
//     change them.
//   - Implementations are NOT required to be goroutine-safe. The concurrent
//     round engine serializes all Aggregator calls on the server goroutine,
//     which is what keeps aggregation bit-reproducible regardless of
//     ServerConfig.Workers.
type Aggregator interface {
	// Name labels the aggregation policy for logs and experiment tables.
	Name() string
	// Reset clears all per-round state.
	Reset()
	// Add folds one client update into the round.
	Add(u Update) error
	// Finalize returns the aggregated gradient, one caller-owned tensor
	// per model parameter. It errors when no update was added.
	Finalize() ([]*tensor.Tensor, error)
}

// shapesOf copies each tensor's shape: the reference a round's later updates
// are checked against, which outlives the released first update.
func shapesOf(ts []*tensor.Tensor) [][]int {
	shapes := make([][]int, len(ts))
	for i, t := range ts {
		shapes[i] = t.Shape()
	}
	return shapes
}

// checkShapes validates an update against the reference shapes of the
// round's first update.
func checkShapes(ref [][]int, u Update) error {
	if len(u.Grads) != len(ref) {
		return fmt.Errorf("fl: client %s returned %d gradient tensors, want %d",
			u.ClientID, len(u.Grads), len(ref))
	}
	for i, g := range u.Grads {
		if !hasShape(g, ref[i]...) {
			return fmt.Errorf("fl: client %s gradient %d shape %v, want %v",
				u.ClientID, i, g.Shape(), ref[i])
		}
	}
	return nil
}

// FedAvgMean is the paper's Eq. 1 aggregator: the arithmetic mean of all
// client gradients. It streams — memory stays O(model), not O(clients).
type FedAvgMean struct {
	sum    []*tensor.Tensor
	shapes [][]int
	count  int
}

var _ Aggregator = (*FedAvgMean)(nil)

// NewFedAvgMean constructs the FedSGD/FedAvg mean aggregator.
func NewFedAvgMean() *FedAvgMean { return &FedAvgMean{} }

// Name returns "mean".
func (a *FedAvgMean) Name() string { return "mean" }

// Reset clears the running sum.
func (a *FedAvgMean) Reset() { a.sum, a.shapes, a.count = nil, nil, 0 }

// Add folds one update into the running sum.
func (a *FedAvgMean) Add(u Update) error {
	if a.sum == nil {
		a.sum = make([]*tensor.Tensor, len(u.Grads))
		for i, g := range u.Grads {
			a.sum[i] = g.ClonePooled()
		}
		a.shapes = shapesOf(u.Grads)
		a.count = 1
		return nil
	}
	if err := checkShapes(a.shapes, u); err != nil {
		return err
	}
	for i, g := range u.Grads {
		a.sum[i].AddInPlace(g)
	}
	a.count++
	return nil
}

// Finalize scales the running sum into the mean in place and hands it to
// the caller; the aggregator is empty afterwards, as after Reset.
func (a *FedAvgMean) Finalize() ([]*tensor.Tensor, error) {
	if a.count == 0 {
		return nil, fmt.Errorf("fl: %s aggregator finalized with no updates", a.Name())
	}
	inv := 1.0 / float64(a.count)
	out := a.sum
	for _, s := range out {
		s.ScaleInPlace(inv)
	}
	a.Reset()
	return out, nil
}

// NormClipped bounds each client's influence before averaging: an update
// whose joint L2 norm across all tensors exceeds MaxNorm is scaled down to
// MaxNorm, then the clipped updates are averaged. This is the standard
// defense against magnitude-based poisoning (a single client shipping a huge
// gradient) and also streams in O(model) memory.
type NormClipped struct {
	MaxNorm float64
	mean    FedAvgMean
}

var _ Aggregator = (*NormClipped)(nil)

// NewNormClipped constructs the clipping aggregator; maxNorm must be finite
// and > 0 (a NaN bound would write NaN into the global model).
func NewNormClipped(maxNorm float64) (*NormClipped, error) {
	if !(maxNorm > 0) || math.IsInf(maxNorm, 1) {
		return nil, fmt.Errorf("fl: normclip needs finite max norm > 0, got %g", maxNorm)
	}
	return &NormClipped{MaxNorm: maxNorm}, nil
}

// Name returns a label including the clip bound.
func (a *NormClipped) Name() string { return fmt.Sprintf("normclip(%g)", a.MaxNorm) }

// Reset clears the running sum.
func (a *NormClipped) Reset() { a.mean.Reset() }

// Add clips the update's joint norm to MaxNorm and folds it into the mean.
// An update whose norm is not finite is an error: its clip scale would be 0
// or NaN, and Inf·0 writes NaN into the global model.
func (a *NormClipped) Add(u Update) error {
	normSq := 0.0
	for _, g := range u.Grads {
		n := g.L2Norm()
		normSq += n * n
	}
	if math.IsNaN(normSq) || math.IsInf(normSq, 0) {
		return fmt.Errorf("fl: client %s gradient norm %g is not finite", u.ClientID, math.Sqrt(normSq))
	}
	if normSq <= a.MaxNorm*a.MaxNorm {
		return a.mean.Add(u)
	}
	scale := a.MaxNorm / math.Sqrt(normSq)
	clipped := make([]*tensor.Tensor, len(u.Grads))
	for i, g := range u.Grads {
		clipped[i] = g.Scale(scale)
	}
	return a.mean.Add(Update{ClientID: u.ClientID, Round: u.Round, Grads: clipped})
}

// Finalize returns the mean of the clipped updates.
func (a *NormClipped) Finalize() ([]*tensor.Tensor, error) {
	if a.mean.count == 0 {
		return nil, fmt.Errorf("fl: %s aggregator finalized with no updates", a.Name())
	}
	return a.mean.Finalize()
}

// bufferedAggregator collects whole updates; the robust order statistics
// below need every client's value per coordinate before they can decide.
type bufferedAggregator struct {
	updates [][]*tensor.Tensor
	shapes  [][]int
}

func (b *bufferedAggregator) reset() { b.updates, b.shapes = nil, nil }

func (b *bufferedAggregator) add(u Update) error {
	if len(b.updates) == 0 {
		b.shapes = shapesOf(u.Grads)
	} else if err := checkShapes(b.shapes, u); err != nil {
		return err
	}
	grads := make([]*tensor.Tensor, len(u.Grads))
	for i, g := range u.Grads {
		grads[i] = g.Clone()
	}
	b.updates = append(b.updates, grads)
	return nil
}

// reduce computes one output tensor per parameter by applying f to the
// sorted per-coordinate column of values across all buffered updates.
func (b *bufferedAggregator) reduce(f func(sorted []float64) float64) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(b.updates[0]))
	column := make([]float64, len(b.updates))
	datas := make([][]float64, len(b.updates))
	for p, ref := range b.updates[0] {
		for c, upd := range b.updates {
			datas[c] = upd[p].Data()
		}
		agg := tensor.NewPooled(ref.Shape()...)
		dst := agg.Data()
		for i := range dst {
			for c, d := range datas {
				column[c] = d[i]
			}
			sort.Float64s(column)
			dst[i] = f(column)
		}
		out[p] = agg
	}
	return out
}

// CoordinateMedian is the coordinate-wise median aggregator (Yin et al.,
// "Byzantine-Robust Distributed Learning"): each gradient coordinate is the
// median of that coordinate across all client updates, which tolerates up to
// half the clients sending arbitrary values.
type CoordinateMedian struct {
	buf bufferedAggregator
}

var _ Aggregator = (*CoordinateMedian)(nil)

// NewCoordinateMedian constructs the median aggregator.
func NewCoordinateMedian() *CoordinateMedian { return &CoordinateMedian{} }

// Name returns "median".
func (a *CoordinateMedian) Name() string { return "median" }

// Reset drops all buffered updates.
func (a *CoordinateMedian) Reset() { a.buf.reset() }

// Add buffers one update.
func (a *CoordinateMedian) Add(u Update) error { return a.buf.add(u) }

// Finalize returns the coordinate-wise median across the buffered updates.
func (a *CoordinateMedian) Finalize() ([]*tensor.Tensor, error) {
	n := len(a.buf.updates)
	if n == 0 {
		return nil, fmt.Errorf("fl: %s aggregator finalized with no updates", a.Name())
	}
	return a.buf.reduce(func(sorted []float64) float64 {
		if n%2 == 1 {
			return sorted[n/2]
		}
		return 0.5 * (sorted[n/2-1] + sorted[n/2])
	}), nil
}

// TrimmedMean is the coordinate-wise trimmed mean (Yin et al.): per
// coordinate, the lowest and highest ⌊Frac·n⌋ values are discarded and the
// rest averaged, bounding the influence of outlier clients while keeping
// more signal than the median.
type TrimmedMean struct {
	Frac float64 // fraction trimmed from EACH tail, in [0, 0.5)
	buf  bufferedAggregator
}

var _ Aggregator = (*TrimmedMean)(nil)

// NewTrimmedMean constructs the trimmed-mean aggregator; frac is the
// fraction trimmed from each tail and must lie in [0, 0.5). The check is
// written so NaN, which fails every comparison, is rejected too.
func NewTrimmedMean(frac float64) (*TrimmedMean, error) {
	if !(frac >= 0 && frac < 0.5) {
		return nil, fmt.Errorf("fl: trimmed-mean fraction %g outside [0, 0.5)", frac)
	}
	return &TrimmedMean{Frac: frac}, nil
}

// Name returns a label including the trim fraction.
func (a *TrimmedMean) Name() string { return fmt.Sprintf("trimmed(%g)", a.Frac) }

// Reset drops all buffered updates.
func (a *TrimmedMean) Reset() { a.buf.reset() }

// Add buffers one update.
func (a *TrimmedMean) Add(u Update) error { return a.buf.add(u) }

// Finalize returns the coordinate-wise trimmed mean.
func (a *TrimmedMean) Finalize() ([]*tensor.Tensor, error) {
	n := len(a.buf.updates)
	if n == 0 {
		return nil, fmt.Errorf("fl: %s aggregator finalized with no updates", a.Name())
	}
	// ⌊Frac·n⌋ with an epsilon so exact products (0.3×10) don't truncate
	// one short through float error and let an outlier survive the trim.
	k := int(math.Floor(a.Frac*float64(n) + 1e-9))
	if 2*k >= n {
		k = (n - 1) / 2 // always keep at least one value per coordinate
	}
	inv := 1.0 / float64(n-2*k)
	return a.buf.reduce(func(sorted []float64) float64 {
		s := 0.0
		for _, v := range sorted[k : n-k] {
			s += v
		}
		return s * inv
	}), nil
}

// AggregatorNames lists the selectable aggregation policies accepted by
// NewAggregatorByName (without their optional numeric suffixes).
func AggregatorNames() []string { return []string{"mean", "median", "trimmed", "normclip"} }

// NewAggregatorByName resolves an aggregation policy label:
//
//	mean              arithmetic mean (FedSGD Eq. 1; alias "fedavg")
//	median            coordinate-wise median
//	trimmed[:FRAC]    coordinate-wise trimmed mean (default FRAC 0.1 per tail)
//	normclip[:NORM]   per-update L2 clipping to NORM (default 10) before mean
//
// The optional ":value" suffix tunes the policy's parameter, e.g.
// "trimmed:0.25" or "normclip:5".
func NewAggregatorByName(spec string) (Aggregator, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	parse := func(def float64) (float64, error) {
		if !hasArg {
			return def, nil
		}
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return 0, fmt.Errorf("fl: aggregator %q: bad parameter %q", spec, arg)
		}
		return v, nil
	}
	switch name {
	case "mean", "fedavg":
		if hasArg {
			return nil, fmt.Errorf("fl: aggregator %q takes no parameter", name)
		}
		return NewFedAvgMean(), nil
	case "median":
		if hasArg {
			return nil, fmt.Errorf("fl: aggregator %q takes no parameter", name)
		}
		return NewCoordinateMedian(), nil
	case "trimmed":
		frac, err := parse(0.1)
		if err != nil {
			return nil, err
		}
		return NewTrimmedMean(frac)
	case "normclip":
		maxNorm, err := parse(10)
		if err != nil {
			return nil, err
		}
		return NewNormClipped(maxNorm)
	default:
		return nil, fmt.Errorf("fl: unknown aggregator %q (have %v)", spec, AggregatorNames())
	}
}
