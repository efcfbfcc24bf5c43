package data

import (
	"fmt"
	"math"
	rand "math/rand/v2"
	"sort"
	"strconv"
	"strings"
)

// Partitioner splits a dataset's index space [0, ds.Len()) into n disjoint
// client shards that together cover every sample exactly once. It is how a
// simulated FL population decides who owns which data.
//
// Contract:
//
//   - Every index appears in exactly one shard (disjointness + coverage).
//   - Every shard is non-empty; implementations rebalance if a draw would
//     leave a client with no data (an empty shard cannot train).
//   - The result depends only on (ds.Len(), labels, n, rng state), so a
//     fixed seed reproduces the same population bit for bit.
type Partitioner interface {
	// Name labels the policy for logs and reports (e.g. "dirichlet:0.1").
	Name() string
	// PartitionLazy makes every keyed draw of the partition over ds up
	// front and returns it in deferred form: client k's shard is
	// materialized only when Shard(k) is called.
	PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error)
}

// NewPartitioner resolves a partitioning policy from its textual spec:
//
//	iid               equal-size random shards (remainders distributed)
//	dirichlet[:a]     label skew: per class, client shares ~ Dirichlet(a·1);
//	                  a defaults to 0.5, smaller a = more skew
//	quantity[:s]      size skew: shard sizes ~ LogNormal(0, s); s defaults
//	                  to 0.5, larger s = more unequal shards
func NewPartitioner(spec string) (Partitioner, error) {
	name, arg, hasArg := strings.Cut(spec, ":")
	parse := func(def float64) (float64, error) {
		if !hasArg {
			return def, nil
		}
		v, err := strconv.ParseFloat(arg, 64)
		if err != nil {
			return 0, fmt.Errorf("data: partitioner %q: bad parameter %q", spec, arg)
		}
		return v, nil
	}
	switch name {
	case "iid":
		if hasArg {
			return nil, fmt.Errorf("data: partitioner iid takes no parameter, got %q", spec)
		}
		return IID{}, nil
	case "dirichlet":
		a, err := parse(0.5)
		if err != nil {
			return nil, err
		}
		d := Dirichlet{Alpha: a}
		if err := d.validate(); err != nil {
			return nil, err
		}
		return d, nil
	case "quantity":
		s, err := parse(0.5)
		if err != nil {
			return nil, err
		}
		q := Quantity{Sigma: s}
		if err := q.validate(); err != nil {
			return nil, err
		}
		return q, nil
	default:
		return nil, fmt.Errorf("data: unknown partitioner %q (want iid, dirichlet[:alpha], quantity[:sigma])", spec)
	}
}

// PartitionerNames lists the textual specs NewPartitioner accepts.
func PartitionerNames() []string { return []string{"iid", "dirichlet:<alpha>", "quantity:<sigma>"} }

// checkPartitionArgs validates the shared preconditions of all partitioners.
func checkPartitionArgs(ds Dataset, n int) error {
	if n <= 0 {
		return fmt.Errorf("data: cannot partition into %d shards", n)
	}
	if n > ds.Len() {
		return fmt.Errorf("data: cannot partition %s (%d samples) across %d clients: need at least one sample per client",
			ds.Name(), ds.Len(), n)
	}
	return nil
}

// IID shards uniformly at random into near-equal sizes: the first
// len%n shards receive one extra sample, so no index is ever dropped.
type IID struct{}

var _ Partitioner = IID{}

// Name returns "iid".
func (IID) Name() string { return "iid" }

// PartitionLazy permutes the index space once; the shards are the
// permutation's near-equal slices, whose offsets LazyPartition derives
// instead of storing.
func (IID) PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	return &LazyPartition{
		name: IID{}.Name(), n: n,
		pools: [][]int32{shuffledIndices(rng, ds.Len())}, offsets: [][]int32{nil},
	}, nil
}

// Dirichlet is the standard label-skew partitioner of the non-IID FL
// literature (Hsu et al., arXiv:1909.06335): for every class, the class's
// samples are divided among the n clients according to proportions drawn
// from Dirichlet(Alpha·1ₙ). Small Alpha (e.g. 0.1) concentrates each class
// on a few clients; large Alpha approaches IID.
type Dirichlet struct {
	Alpha float64
}

var _ Partitioner = Dirichlet{}

// Name returns "dirichlet:<alpha>".
func (d Dirichlet) Name() string { return fmt.Sprintf("dirichlet:%g", d.Alpha) }

// validate rejects an alpha that is not a finite positive number.
func (d Dirichlet) validate() error {
	if math.IsNaN(d.Alpha) || math.IsInf(d.Alpha, 0) || d.Alpha <= 0 {
		return fmt.Errorf("data: dirichlet alpha must be finite and > 0, got %g", d.Alpha)
	}
	return nil
}

// PartitionLazy splits each class's shuffled samples by Dirichlet-drawn
// proportions, keeping one pool and offset row per class, then rebalances
// so every client ends up with at least one sample.
func (d Dirichlet) PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	if err := d.validate(); err != nil {
		return nil, err
	}
	byClass, order := classIndex(ds)
	lp := &LazyPartition{name: d.Name(), n: n}
	for _, y := range order {
		idx := byClass[y]
		rng.Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		props := dirichletDraw(rng, d.Alpha, n)
		counts := apportion(props, len(idx))
		offsets := make([]int32, n+1)
		for c, k := range counts {
			offsets[c+1] = offsets[c] + int32(k)
		}
		lp.pools = append(lp.pools, toInt32(idx))
		lp.offsets = append(lp.offsets, offsets)
	}
	lp.rebalance()
	return lp, nil
}

// Quantity is the size-skew partitioner: shard sizes are proportional to
// LogNormal(0, Sigma) draws (class balance stays roughly IID). Sigma = 0
// degenerates to equal sizes; Sigma ≈ 1 yields order-of-magnitude spread.
type Quantity struct {
	Sigma float64
}

var _ Partitioner = Quantity{}

// Name returns "quantity:<sigma>".
func (q Quantity) Name() string { return fmt.Sprintf("quantity:%g", q.Sigma) }

// validate rejects a sigma that is not a finite non-negative number.
func (q Quantity) validate() error {
	if math.IsNaN(q.Sigma) || math.IsInf(q.Sigma, 0) || q.Sigma < 0 {
		return fmt.Errorf("data: quantity sigma must be finite and ≥ 0, got %g", q.Sigma)
	}
	return nil
}

// PartitionLazy draws per-client log-normal weights, apportions the index
// space by them, and slices a random permutation accordingly. A sigma large
// enough for the weights to overflow (or all underflow) is an error: their
// proportions would be undefined.
func (q Quantity) PartitionLazy(ds Dataset, n int, rng *rand.Rand) (*LazyPartition, error) {
	if err := checkPartitionArgs(ds, n); err != nil {
		return nil, err
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = math.Exp(rng.NormFloat64() * q.Sigma)
		total += weights[i]
	}
	if math.IsInf(total, 0) || total == 0 {
		return nil, fmt.Errorf("data: quantity sigma %g: log-normal weight total %g is out of float64 range", q.Sigma, total)
	}
	props := make([]float64, n)
	for i, w := range weights {
		props[i] = w / total
	}
	counts := apportion(props, ds.Len())
	pool := shuffledIndices(rng, ds.Len())
	offsets := make([]int32, n+1)
	for k, c := range counts {
		offsets[k+1] = offsets[k] + int32(c)
	}
	lp := &LazyPartition{
		name: q.Name(), n: n,
		pools: [][]int32{pool}, offsets: [][]int32{offsets},
	}
	lp.rebalance()
	return lp, nil
}

// dirichletDraw samples a probability vector from Dirichlet(alpha·1ₙ) via
// normalized Gamma(alpha, 1) draws.
func dirichletDraw(rng *rand.Rand, alpha float64, n int) []float64 {
	g := make([]float64, n)
	total := 0.0
	for i := range g {
		g[i] = gammaDraw(rng, alpha)
		total += g[i]
	}
	if total == 0 { // vanishingly unlikely underflow for tiny alpha
		for i := range g {
			g[i] = 1 / float64(n)
		}
		return g
	}
	for i := range g {
		g[i] /= total
	}
	return g
}

// gammaDraw samples Gamma(alpha, 1) by Marsaglia–Tsang squeeze, with the
// standard U^(1/alpha) boost for alpha < 1.
func gammaDraw(rng *rand.Rand, alpha float64) float64 {
	if alpha < 1 {
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		return gammaDraw(rng, alpha+1) * math.Pow(u, 1/alpha)
	}
	d := alpha - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// apportion converts fractional proportions into integer counts summing
// exactly to total (largest-remainder method, ties broken by index).
func apportion(props []float64, total int) []int {
	counts := make([]int, len(props))
	type frac struct {
		i int
		f float64
	}
	rem := total
	fracs := make([]frac, len(props))
	for i, p := range props {
		exact := p * float64(total)
		counts[i] = int(math.Floor(exact))
		rem -= counts[i]
		fracs[i] = frac{i: i, f: exact - math.Floor(exact)}
	}
	sort.SliceStable(fracs, func(a, b int) bool { return fracs[a].f > fracs[b].f })
	for k := 0; k < rem; k++ {
		counts[fracs[k%len(fracs)].i]++
	}
	return counts
}
