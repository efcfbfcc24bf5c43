package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkpointTestConfig is the tiny grid the checkpoint tests run: 2×2 cells
// × 2 replicates = 8 jobs.
func checkpointTestConfig() SweepConfig {
	return SweepConfig{
		Attacks:    []string{"rtf", "qbi"},
		Defenses:   []string{"none", "prune:0.3"},
		Replicates: 2,
		Workers:    1,
		Quick:      true,
	}
}

// runCheckpointed runs the checkpoint test grid against the checkpoint at
// path and returns the report's JSON.
func runCheckpointed(t *testing.T, path string) []byte {
	t.Helper()
	cfg := checkpointTestConfig()
	cfg.Checkpoint = path
	rep, err := RunSweep(cfg)
	if err != nil {
		t.Fatalf("RunSweep with checkpoint %s: %v", path, err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkpointLines returns the checkpoint's newline-terminated lines.
func checkpointLines(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(raw, []byte("\n"))
	return lines[:len(lines)-1]
}

// writeLines writes lines, each ending in a newline, to a new file in dir.
func writeLines(t *testing.T, dir, name string, lines ...[]byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	var raw []byte
	for _, l := range lines {
		raw = append(append(raw, bytes.TrimSuffix(l, []byte("\n"))...), '\n')
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadAll reopens the checkpoint at path and fails the test unless it
// resumes every job of the grid.
func loadAll(t *testing.T, path string, grid *SweepGrid) {
	t.Helper()
	ck, resumed, err := OpenCheckpoint(path, grid, make([]*SweepJobResult, grid.NumJobs()))
	if err != nil {
		t.Fatalf("reopening %s: %v", path, err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if resumed != grid.NumJobs() {
		t.Fatalf("%s resumes %d of %d jobs", path, resumed, grid.NumJobs())
	}
}

// TestSweepCheckpointResume checks RunSweep's checkpoint: a fresh sweep
// appends every job exactly once, a full resume runs nothing, and a half
// resume runs exactly the missing jobs, all with byte-identical reports.
func TestSweepCheckpointResume(t *testing.T) {
	grid, err := NewSweepGrid(checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sweep.ckpt")
	golden := runCheckpointed(t, path)
	lines := checkpointLines(t, path)
	if len(lines) != 1+grid.NumJobs() {
		t.Fatalf("fresh checkpoint has %d lines, want a header and one per job", len(lines))
	}
	loadAll(t, path, grid)

	// Fully resumed: no job runs, so nothing is appended.
	if raw := runCheckpointed(t, path); !bytes.Equal(golden, raw) {
		t.Fatalf("fully-resumed report diverges:\n%s\nvs\n%s", raw, golden)
	}
	if n := len(checkpointLines(t, path)); n != len(lines) {
		t.Fatalf("fully-resumed sweep appended %d lines, want 0", n-len(lines))
	}

	// Half resumed: exactly the missing jobs run and are appended.
	half := writeLines(t, dir, "half.ckpt", lines[:1+grid.NumJobs()/2]...)
	if raw := runCheckpointed(t, half); !bytes.Equal(golden, raw) {
		t.Fatalf("half-resumed report diverges:\n%s\nvs\n%s", raw, golden)
	}
	if n := len(checkpointLines(t, half)); n != len(lines) {
		t.Fatalf("half-resumed checkpoint has %d lines, want %d", n, len(lines))
	}
	loadAll(t, half, grid)
}

// TestSweepCheckpointValidation checks that checkpointed results are
// validated against the grid before anything runs, and that failed results
// are retried rather than trusted.
func TestSweepCheckpointValidation(t *testing.T) {
	cfg := checkpointTestConfig()
	grid, err := NewSweepGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	header, err := json.Marshal(headerFor(grid))
	if err != nil {
		t.Fatal(err)
	}
	good := SweepJobResult{Cell: 0, Rep: 0, Attack: "rtf", Defense: "none", Seed: grid.Seeds[0]}
	line := func(r SweepJobResult) []byte {
		raw, err := json.Marshal(checkpointResult{Type: "result", SweepJobResult: r})
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	dir := t.TempDir()

	tampered := good
	tampered.Seed++
	cfg.Checkpoint = writeLines(t, dir, "tampered.ckpt", header, line(tampered))
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "claims") {
		t.Fatalf("tampered result: err %v, want a grid-mismatch rejection", err)
	}

	outside := good
	outside.Cell = grid.NumCells()
	cfg.Checkpoint = writeLines(t, dir, "outside.ckpt", header, line(outside))
	if _, err := RunSweep(cfg); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("out-of-range result: err %v, want an out-of-grid rejection", err)
	}

	// A failed result is skipped: its job re-runs with every other one.
	failed := good
	failed.Err = "transient node loss"
	cfg.Checkpoint = writeLines(t, dir, "failed.ckpt", header, line(failed))
	if _, err := RunSweep(cfg); err != nil {
		t.Fatalf("RunSweep past a failed result: %v", err)
	}
	if n := len(checkpointLines(t, cfg.Checkpoint)); n != 2+grid.NumJobs() {
		t.Fatalf("sweep past one failed result left %d lines, want %d: it must re-run all %d jobs",
			n, 2+grid.NumJobs(), grid.NumJobs())
	}
	loadAll(t, cfg.Checkpoint, grid)
}

// TestSweepResumePastTornLine resumes a sweep twice from a checkpoint whose
// final line a crash tore. Each resume must cut the fragment before it
// appends, so the file loads with every job afterwards, and the report
// must equal the serial bytes.
func TestSweepResumePastTornLine(t *testing.T) {
	cfg := checkpointTestConfig()
	cfg.CellWorkers = 1
	rep, err := RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	grid, err := NewSweepGrid(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.ckpt")
	runCheckpointed(t, path)
	for round := range 2 {
		// Keep half the results and tear the next line in two.
		lines := checkpointLines(t, path)
		keep := 1 + grid.NumJobs()/2
		torn := append(bytes.Join(lines[:keep], nil), lines[keep][:len(lines[keep])/2]...)
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if raw := runCheckpointed(t, path); !bytes.Equal(golden, raw) {
			t.Fatalf("resume %d past a torn line diverges from serial:\n%s\nvs\n%s", round+1, raw, golden)
		}
		loadAll(t, path, grid)
		if n := len(checkpointLines(t, path)); n != 1+grid.NumJobs() {
			t.Fatalf("resume %d left %d lines, want a header and one per job", round+1, n)
		}
	}
}

// TestLoadCheckpointValidation pins OpenCheckpoint's failure modes: missing
// file, foreign grid, corrupt interior line, torn final line, failed and
// duplicate result lines.
func TestLoadCheckpointValidation(t *testing.T) {
	grid, err := NewSweepGrid(checkpointTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	open := func(path string, g *SweepGrid) ([]*SweepJobResult, int, error) {
		t.Helper()
		results := make([]*SweepJobResult, g.NumJobs())
		ck, resumed, err := OpenCheckpoint(path, g, results)
		if err == nil {
			if cerr := ck.Close(); cerr != nil {
				t.Fatal(cerr)
			}
		}
		return results, resumed, err
	}

	// A missing file is an empty resume: it is created with the header.
	absent := filepath.Join(dir, "absent.ckpt")
	if _, resumed, err := open(absent, grid); err != nil || resumed != 0 {
		t.Fatalf("missing file: resumed %d, err %v; want 0, nil", resumed, err)
	}
	header, err := json.Marshal(headerFor(grid))
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := os.ReadFile(absent); !bytes.Equal(raw, append(header, '\n')) {
		t.Fatalf("new checkpoint holds %q, want just the header", raw)
	}

	// Build a checkpoint with two results to splice test files from.
	real := filepath.Join(dir, "real.ckpt")
	ck, _, err := OpenCheckpoint(real, grid, make([]*SweepJobResult, grid.NumJobs()))
	if err != nil {
		t.Fatal(err)
	}
	var res [2]SweepJobResult
	for id := range res {
		job := grid.Job(id)
		res[id] = SweepJobResult{Cell: job.Cell, Rep: job.Rep, Attack: job.Attack, Defense: job.Defense,
			Seed: job.Seed, Captures: 3, Reconstructions: 5, PSNR: 21.5 + float64(id), SSIM: 0.75, Accuracy: 0.5}
		if err := ck.Append(res[id]); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	lines := checkpointLines(t, real)
	if len(lines) != 3 {
		t.Fatalf("seed checkpoint has %d lines, want 3", len(lines))
	}
	if loaded, resumed, err := open(real, grid); err != nil || resumed != 2 || *loaded[1] != res[1] {
		t.Fatalf("real checkpoint: resumed %d, err %v; want both results back", resumed, err)
	}

	// A checkpoint from a different grid must be rejected outright.
	other := checkpointTestConfig()
	other.Replicates = 3
	otherGrid, err := NewSweepGrid(other)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := open(real, otherGrid); err == nil || !strings.Contains(err.Error(), "different grid") {
		t.Fatalf("foreign grid: err %v, want a different-grid rejection", err)
	}

	// A torn final line (mid-append crash) is cut off; that job re-runs.
	torn := filepath.Join(dir, "torn.ckpt")
	complete := bytes.Join(lines[:2], nil)
	if err := os.WriteFile(torn, append(bytes.Clone(complete), lines[2][:len(lines[2])/2]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, resumed, err := open(torn, grid); err != nil || resumed != 1 {
		t.Fatalf("torn final line: resumed %d, err %v; want 1, nil", resumed, err)
	}
	if raw, _ := os.ReadFile(torn); !bytes.Equal(raw, complete) {
		t.Fatalf("torn checkpoint holds %q after opening, want its complete lines %q", raw, complete)
	}

	// The same corruption anywhere else is an error, and the file is kept.
	corrupt := writeLines(t, dir, "corrupt.ckpt", lines[0], lines[1][:len(lines[1])/2], lines[2])
	before, _ := os.ReadFile(corrupt)
	if _, _, err := open(corrupt, grid); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt interior line: err %v, want corruption error", err)
	}
	if after, _ := os.ReadFile(corrupt); !bytes.Equal(before, after) {
		t.Fatal("opening a corrupt checkpoint changed it")
	}

	// Failed results are skipped (resume retries them); duplicates keep the
	// first occurrence.
	failed := res[0]
	failed.Err = "transient"
	failedLine, _ := json.Marshal(checkpointResult{Type: "result", SweepJobResult: failed})
	dup := res[1]
	dup.PSNR++
	dupLine, _ := json.Marshal(checkpointResult{Type: "result", SweepJobResult: dup})
	mixed := writeLines(t, dir, "mixed.ckpt", lines[0], failedLine, lines[2], dupLine)
	loaded, resumed, err := open(mixed, grid)
	if err != nil || resumed != 1 || loaded[0] != nil || *loaded[1] != res[1] {
		t.Fatalf("failed+duplicate lines: resumed %d, err %v; want just the first result of job 1", resumed, err)
	}
}
