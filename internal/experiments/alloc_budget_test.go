//go:build !race

// The race detector makes sync.Pool drop Puts at random, so the tensor
// arena's reuse, and with it every allocation count below, is only
// reproducible without it.

package experiments

import (
	"runtime"
	"slices"
	"testing"

	"github.com/oasisfl/oasis/internal/sim"
	"github.com/oasisfl/oasis/internal/tensor"
)

// allocBudget is the committed allocation volume of one workload run.
type allocBudget struct {
	name    string
	bytes   uint64 // runtime.MemStats.TotalAlloc delta
	mallocs uint64 // runtime.MemStats.Mallocs delta
	run     func() error
}

// Allocation budgets fail in both directions. A run more than
// allocOverBudget above its budget is a regression (the bound matches
// alloc_kb_per_op in BENCHMARK.json). A run below allocRatchet of its budget
// is an improvement the budget must record, so it cannot drift into a
// baseline that never fires.
const (
	allocOverBudget = 0.05
	allocRatchet    = 0.90
)

// TestAllocationBudget holds the round engine and the sweep grid engine to
// committed allocation budgets. Allocation counts, unlike wall-clock, are
// exact on any core count: the test pins GOMAXPROCS and the tensor workers
// to 1, warms the tensor arena with one run, and takes the median of three
// measured runs.
func TestAllocationBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer tensor.SetWorkers(tensor.SetWorkers(1))

	crossDevice, ok := sim.Preset("cross-device-1k")
	if !ok {
		t.Fatal("preset cross-device-1k not registered")
	}
	budgets := []allocBudget{
		{
			name: "cross-device-1k", bytes: 7_950_000, mallocs: 29_150,
			run: func() error {
				_, err := sim.Run(crossDevice, sim.Options{Quick: true, Workers: 1})
				return err
			},
		},
		{
			name: "sweep-grid", bytes: 4_900_000, mallocs: 22_200,
			run: func() error {
				_, err := RunSweep(SweepConfig{
					Attacks:     []string{"rtf", "qbi"},
					Defenses:    []string{"none", "prune:0.3"},
					Replicates:  2,
					Workers:     1,
					CellWorkers: 1,
					Quick:       true,
				})
				return err
			},
		},
	}
	for _, b := range budgets {
		t.Run(b.name, func(t *testing.T) {
			bytes, mallocs, err := measureAllocs(b.run)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d B, %d mallocs per run", bytes, mallocs)
			checkBudget(t, "TotalAlloc bytes", bytes, b.bytes)
			checkBudget(t, "mallocs", mallocs, b.mallocs)
		})
	}
}

// measureAllocs runs f once to warm caches and the tensor arena, then
// returns the median TotalAlloc and Mallocs deltas of three further runs.
func measureAllocs(f func() error) (bytes, mallocs uint64, err error) {
	if err := f(); err != nil {
		return 0, 0, err
	}
	var byteRuns, mallocRuns []uint64
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		if err := f(); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&after)
		byteRuns = append(byteRuns, after.TotalAlloc-before.TotalAlloc)
		mallocRuns = append(mallocRuns, after.Mallocs-before.Mallocs)
	}
	slices.Sort(byteRuns)
	slices.Sort(mallocRuns)
	return byteRuns[1], mallocRuns[1], nil
}

func checkBudget(t *testing.T, what string, got, budget uint64) {
	t.Helper()
	ratio := float64(got) / float64(budget)
	switch {
	case ratio > 1+allocOverBudget:
		t.Errorf("%s: %d is %.1f%% over the budget of %d", what, got, (ratio-1)*100, budget)
	case ratio < allocRatchet:
		t.Errorf("%s: %d is %.1f%% under the budget of %d; lower the budget to %d", what, got, (1-ratio)*100, budget, got)
	}
}
