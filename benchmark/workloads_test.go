package main

import (
	"testing"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/sim"
)

func TestSimOpsCountsFailuresButNotDropoutsOrLateClients(t *testing.T) {
	rep := &sim.Report{Rounds: []sim.RoundReport{
		{Selected: 10, Completed: 7, Dropped: 1, Late: 1, Failed: 1},
		{Selected: 5, Completed: 5},
	}}
	ops, attempted, failed := simOps(rep)
	if ops != 12 || attempted != 13 || failed != 1 {
		t.Errorf("simOps = %d, %d, %d; want 12 ops, 13 attempted, 1 failed", ops, attempted, failed)
	}
	if problems := checkRounds(rep); len(problems) != 0 {
		t.Errorf("consistent rounds reported problems: %v", problems)
	}
}

func TestSweepOpsCountsFailedAndMissingCells(t *testing.T) {
	// A 2×2 grid at 3 replicates: one cell lost a replicate, and one cell
	// lost all three, so the report leaves it out.
	rep := &experiments.SweepReport{
		Replicates: 3,
		Attacks:    []string{"rtf", "cah"},
		Defenses:   []string{"none", "prune:0.3"},
		Cells: []experiments.SweepCell{
			{Attack: "rtf", Defense: "none", Reconstructions: 4},
			{Attack: "rtf", Defense: "prune:0.3", Reconstructions: 2, FailedReplicates: 1},
			{Attack: "cah", Defense: "none", Reconstructions: 5},
		},
	}
	ops, attempted, failed := sweepOps(rep, 4)
	if ops != 8 || attempted != 12 || failed != 4 {
		t.Errorf("sweepOps = %d, %d, %d; want 8 ops, 12 attempted, 4 failed", ops, attempted, failed)
	}
	out, err := sweepOutcome(rep)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.problems) != 2 {
		t.Errorf("problems = %q, want the missing cell and the failed replicate", out.problems)
	}
}

func TestCheckRoundsFlagsUnaccountedClientsAndEmptyStrikes(t *testing.T) {
	rep := &sim.Report{Scenario: "s", Rounds: []sim.RoundReport{
		{Round: 0, Selected: 4, Completed: 2, Dropped: 1},
		{Round: 1, Selected: 2, Completed: 2, AttackActive: true},
		{Round: 2, Selected: 2, Completed: 2, AttackActive: true, Reconstructions: 3},
	}}
	if problems := checkRounds(rep); len(problems) != 2 {
		t.Errorf("problems = %q, want round 0's count and round 1's strike", problems)
	}
}
