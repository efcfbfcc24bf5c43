package dist

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"github.com/oasisfl/oasis/internal/experiments"
)

// FuzzLoadCheckpoint: a checkpoint is a file that a crashed run, or a run of
// some other grid, left behind, so LoadCheckpoint must turn any bytes into
// results or an error, never a panic. Every result it returns is a
// successful job of the grid, and no job appears twice. The corpus starts
// from a header with two results, and the same file with a torn final line.
// Run beyond it with:
//
//	go test -run '^$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/dist
func FuzzLoadCheckpoint(f *testing.F) {
	grid, err := experiments.NewSweepGrid(testSweep())
	if err != nil {
		f.Fatal(err)
	}
	lines := [][]byte{mustJSON(f, headerFor(grid))}
	for id := 0; id < 2; id++ {
		job := grid.Job(id)
		lines = append(lines, mustJSON(f, checkpointResult{Type: "result", SweepJobResult: experiments.SweepJobResult{
			Cell: job.Cell, Rep: job.Rep, Attack: job.Attack, Defense: job.Defense, Seed: job.Seed,
			Captures: 3, Reconstructions: 5, PSNR: 21.5, SSIM: 0.75, Accuracy: 0.5,
		}}))
	}
	full := append(bytes.Join(lines, []byte("\n")), '\n')
	torn := append(bytes.Clone(full), lines[2][:len(lines[2])/2]...)
	path := filepath.Join(f.TempDir(), "fuzz.ckpt")
	// Both seeds load: the torn line is dropped, its job re-runs.
	for _, seed := range [][]byte{full, torn} {
		if err := os.WriteFile(path, seed, 0o644); err != nil {
			f.Fatal(err)
		}
		if res, err := LoadCheckpoint(path, grid); err != nil || len(res) != 2 {
			f.Fatalf("seed loads %d results, err %v; want 2, nil", len(res), err)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		results, err := LoadCheckpoint(path, grid)
		if err != nil {
			return
		}
		seen := make(map[int]bool)
		for _, r := range results {
			if err := grid.CheckResult(r); err != nil || r.Err != "" {
				t.Fatalf("loaded result %+v is not a successful job of the grid (%v)", r, err)
			}
			id := grid.JobID(r.Cell, r.Rep)
			if seen[id] {
				t.Fatalf("job %d loaded twice", id)
			}
			seen[id] = true
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
