package main

import "testing"

func TestSelfTimeSubtractsTheUnionOfOverlappingChildren(t *testing.T) {
	tree := newSpanTree([]span{
		{id: 1, name: runSpan, start: 0, end: 1000},
		{id: 2, parent: 1, name: "fl.round", start: 0, end: 100},
		// Two clients trained concurrently, then aggregation; the last
		// child outlives its parent and is clipped to it.
		{id: 3, parent: 2, name: "fl.client", start: 10, end: 40},
		{id: 4, parent: 2, name: "fl.client", start: 20, end: 60},
		{id: 5, parent: 2, name: "fl.aggregate", start: 80, end: 90},
		{id: 6, parent: 2, name: "fl.client", start: 95, end: 130},
	})
	round := tree.byName["fl.round"][0]
	// Covered: [10,60] + [80,90] + [95,100] = 65 of 100.
	if got := tree.self(round); got != 35 {
		t.Errorf("self(fl.round) = %d µs, want 35", got)
	}
	if got := tree.selfMS("fl.client"); len(got) != 3 || got[0] != 0.03 {
		t.Errorf("selfMS(fl.client) = %v, want 3 leaves starting at 0.03 ms", got)
	}
}

func TestRootSpansInsideARunAreAdopted(t *testing.T) {
	tree := newSpanTree([]span{
		{id: 1, name: runSpan, start: 0, end: 1000},
		{id: 2, name: "sweep.run", start: 10, end: 900},
		{id: 3, parent: 2, name: "sweep.cell", start: 20, end: 100},
		{id: 4, parent: 2, name: "sweep.cell", start: 50, end: 300},
		{id: 5, name: "tensor.matmul", start: 1100, end: 1200},
	})
	if got := tree.spans[tree.byName["sweep.run"][0]].parent; got != 1 {
		t.Errorf("sweep.run parent = %d, want the run span 1", got)
	}
	if got := tree.spans[tree.byName["tensor.matmul"][0]].parent; got != 0 {
		t.Errorf("span outside every run adopted by %d", got)
	}
	// The phases under sweep.run cover [20,300] of the run's 1000 µs.
	if got := tree.coverage(tree.byName[runSpan][0]); got != 0.28 {
		t.Errorf("coverage = %v, want 0.28", got)
	}
	if got := tree.self(tree.byName[runSpan][0]); got != 110 {
		t.Errorf("self(run) = %d, want 110", got)
	}
}
