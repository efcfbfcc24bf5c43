package fl

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/data"
)

// ClientSampler picks which of the roster's clients participate in a round.
// Assign to Server.Sampler; nil means UniformSampler (uniform without
// replacement).
//
// SampleIndices is called once per round on the server goroutine with the
// server's own deterministic rng; implementations must draw all randomness
// from that rng (and nothing else) to keep runs reproducible across worker
// counts.
type ClientSampler interface {
	// Name labels the sampling strategy for logs and reports.
	Name() string
	// SampleIndices returns m distinct indices drawn from [0, n)
	// (m ≤ 0 or m > n means all, in an implementation-chosen order). size
	// reports client i's local sample count; nil, or a 0 return, weighs the
	// client as 1.
	SampleIndices(round, n, m int, size func(i int) int, rng *rand.Rand) []int
}

// SizedClient is optionally implemented by clients that can report how many
// local samples they hold; SizeWeightedSampler uses it for proportional
// selection (clients that don't implement it weigh as 1 sample).
type SizedClient interface {
	NumSamples() int
}

// NewSamplerByName resolves a sampling strategy: "uniform" (each client
// equally likely) or "size" (probability proportional to local dataset
// size, the FedAvg-paper weighting).
func NewSamplerByName(name string) (ClientSampler, error) {
	switch name {
	case "", "uniform":
		return UniformSampler{}, nil
	case "size":
		return SizeWeightedSampler{}, nil
	default:
		return nil, fmt.Errorf("fl: unknown client sampler %q (want uniform or size)", name)
	}
}

// SamplerNames lists the strategies NewSamplerByName accepts.
func SamplerNames() []string { return []string{"uniform", "size"} }

// UniformSampler draws m clients uniformly without replacement — the policy
// the server applies when no Sampler is set. A draw costs m rng calls and
// O(m) memory whatever the population size (see data.PermPrefix).
type UniformSampler struct{}

var _ ClientSampler = UniformSampler{}

// Name returns "uniform".
func (UniformSampler) Name() string { return "uniform" }

// SampleIndices returns the first m entries of a random permutation of
// [0, n).
func (UniformSampler) SampleIndices(_, n, m int, _ func(int) int, rng *rand.Rand) []int {
	if m <= 0 || m > n {
		m = n
	}
	return data.PermPrefix(rng, n, m)
}

// SizeWeightedSampler draws m clients without replacement with probability
// proportional to their local dataset size (SizedClient), so data-rich
// clients participate more often — the cross-device regime's standard
// counterweight to quantity skew.
type SizeWeightedSampler struct{}

var _ ClientSampler = SizeWeightedSampler{}

// Name returns "size".
func (SizeWeightedSampler) Name() string { return "size" }

// SampleIndices performs successive weighted draws without replacement over
// [0, n), weighing index i by size(i) when positive and 1 otherwise.
func (SizeWeightedSampler) SampleIndices(_, n, m int, size func(int) int, rng *rand.Rand) []int {
	if m <= 0 || m > n {
		m = n
	}
	weights := make([]float64, n)
	remaining := 0.0
	for i := range weights {
		w := 1.0
		if size != nil {
			if s := size(i); s > 0 {
				w = float64(s)
			}
		}
		weights[i] = w
		remaining += w
	}
	selected := make([]int, 0, m)
	taken := make([]bool, n)
	for len(selected) < m {
		r := rng.Float64() * remaining
		pick := -1
		for i, w := range weights {
			if taken[i] {
				continue
			}
			pick = i
			r -= w
			if r < 0 {
				break
			}
		}
		taken[pick] = true
		remaining -= weights[pick]
		selected = append(selected, pick)
	}
	return selected
}
