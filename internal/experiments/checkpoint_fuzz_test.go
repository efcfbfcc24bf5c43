package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLoadCheckpoint: a checkpoint is a file that a crashed run, or a run of
// some other grid, left behind, so OpenCheckpoint must turn any bytes into
// resumed results or an error, never a panic. Every result it resumes is a
// successful job of the grid in its own slot, and a file it opened loads
// again to the same results. The corpus starts from a header with two
// results, and the same file with a torn final line. Run beyond it with:
//
//	go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 10s -fuzzminimizetime 1x ./internal/experiments
func FuzzLoadCheckpoint(f *testing.F) {
	grid, err := NewSweepGrid(checkpointTestConfig())
	if err != nil {
		f.Fatal(err)
	}
	lines := [][]byte{mustJSON(f, headerFor(grid))}
	for id := 0; id < 2; id++ {
		job := grid.Job(id)
		lines = append(lines, mustJSON(f, checkpointResult{Type: "result", SweepJobResult: SweepJobResult{
			Cell: job.Cell, Rep: job.Rep, Attack: job.Attack, Defense: job.Defense, Seed: job.Seed,
			Captures: 3, Reconstructions: 5, PSNR: 21.5, SSIM: 0.75, Accuracy: 0.5,
		}}))
	}
	full := append(bytes.Join(lines, []byte("\n")), '\n')
	torn := append(bytes.Clone(full), lines[2][:len(lines[2])/2]...)
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	open := func(t testing.TB) ([]*SweepJobResult, int, error) {
		results := make([]*SweepJobResult, grid.NumJobs())
		ck, resumed, err := OpenCheckpoint(path, grid, results)
		if err == nil {
			if cerr := ck.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}
		return results, resumed, err
	}
	// Both seeds load: the torn line is cut off, its job re-runs.
	for _, seed := range [][]byte{full, torn} {
		if err := os.WriteFile(path, seed, 0o644); err != nil {
			f.Fatal(err)
		}
		if _, resumed, err := open(f); err != nil || resumed != 2 {
			f.Fatalf("seed resumes %d results, err %v; want 2, nil", resumed, err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		results, resumed, err := open(t)
		if err != nil {
			return
		}
		filled := 0
		for id, r := range results {
			if r == nil {
				continue
			}
			filled++
			if err := grid.CheckResult(*r); err != nil || r.Err != "" || grid.JobID(r.Cell, r.Rep) != id {
				t.Fatalf("slot %d holds %+v, not a successful job of the grid at that slot (%v)", id, *r, err)
			}
		}
		if filled != resumed {
			t.Fatalf("resumed count %d, but %d slots are filled", resumed, filled)
		}
		again, resumedAgain, err := open(t)
		if err != nil || resumedAgain != resumed {
			t.Fatalf("reopening resumes %d results, err %v; want %d, nil", resumedAgain, err, resumed)
		}
		for id := range results {
			if (results[id] == nil) != (again[id] == nil) || results[id] != nil && *results[id] != *again[id] {
				t.Fatalf("reopening changed job %d's result", id)
			}
		}
	})
}

func mustJSON(f *testing.F, v any) []byte {
	f.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		f.Fatal(err)
	}
	return raw
}
