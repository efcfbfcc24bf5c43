package main

import (
	"testing"

	"github.com/oasisfl/oasis/internal/experiments"
)

// FuzzSweepAxes: the -attacks and -defenses flags go through splitList and
// splitDefenses into experiments.NewSweepGrid, which must return an error or
// a grid, never panic. A grid it returns hands each of its jobs out exactly
// once. Run beyond the seed corpus with:
//
//	go test -run '^$' -fuzz FuzzSweepAxes -fuzztime 10s -fuzzminimizetime 1x ./cmd/oasis-sweep
func FuzzSweepAxes(f *testing.F) {
	for _, s := range []struct {
		attacks, defenses string
		replicates        uint8
	}{
		{"", "", 1},
		{"rtf,cah", "none;oasis:MR|dpsgd:1,0.1;ats:SH|prune:0.5", 3},
		{"qbi", "dpsgd:1,0.1", 2},
		{"loki, rtf ,", "none,prune:0.3", 0},
		{"rtf,,unknown", ";;", 1},
		{"cah", "oasis:MR|tinfoil", 4},
	} {
		f.Add(s.attacks, s.defenses, s.replicates)
	}
	f.Fuzz(func(t *testing.T, attacks, defenses string, replicates uint8) {
		grid, err := experiments.NewSweepGrid(experiments.SweepConfig{
			Attacks:    splitList(attacks, ","),
			Defenses:   splitDefenses(defenses),
			Replicates: int(replicates % 16),
			Quick:      true,
		})
		if err != nil {
			return
		}
		seen := make([]bool, grid.NumJobs())
		for _, id := range grid.Order() {
			if seen[id] {
				t.Fatalf("job %d dispatched twice", id)
			}
			seen[id] = true
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("job %d never dispatched", id)
			}
		}
	})
}
