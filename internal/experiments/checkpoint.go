package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"
)

// The JSONL checkpoint is the sweep's crash-survival format, shared by the
// in-process pool (SweepConfig.Checkpoint) and the internal/dist coordinator:
// one header line describing the grid, then one result line per completed
// job, appended (and fsynced) as results land. Because a job result carries
// exactly the statistics the deterministic merge consumes — and float64s
// survive JSON round trips bit-exactly — a grid resumed from a checkpoint
// produces a SweepReport byte-identical to one that ran start-to-finish.
//
//	{"type":"header","schema":1,"scenario":"sweep-base","seed":42,...}
//	{"type":"result","cell":0,"rep":0,"attack":"rtf","defense":"none",...}
//	{"type":"result","cell":0,"rep":1,...}

// CheckpointSchema identifies the checkpoint layout; bump when lines change
// meaning.
const CheckpointSchema = 1

// checkpointHeader pins the grid a checkpoint belongs to. Opening validates
// every field against the resumed grid, so results can never silently merge
// into a different sweep.
type checkpointHeader struct {
	Type       string   `json:"type"`
	Schema     int      `json:"schema"`
	Scenario   string   `json:"scenario"`
	Seed       uint64   `json:"seed"`
	Replicates int      `json:"replicates"`
	Attacks    []string `json:"attacks"`
	Defenses   []string `json:"defenses"`
	Quick      bool     `json:"quick"`
}

// checkpointResult is one completed job line.
type checkpointResult struct {
	Type string `json:"type"`
	SweepJobResult
}

func headerFor(grid *SweepGrid) checkpointHeader {
	return checkpointHeader{
		Type:       "header",
		Schema:     CheckpointSchema,
		Scenario:   grid.Base.Name,
		Seed:       grid.Base.Seed,
		Replicates: grid.Replicates,
		Attacks:    grid.Attacks,
		Defenses:   grid.Defenses,
		Quick:      grid.Quick,
	}
}

// Checkpoint appends completed job results to a JSONL file, fsyncing each
// line so a completed job survives any crash that follows it. Append is
// goroutine-safe. A nil *Checkpoint is a sweep without one: Append and
// Close do nothing.
type Checkpoint struct {
	mu   sync.Mutex
	f    *os.File
	werr error
}

// OpenCheckpoint opens (or creates) the checkpoint at path for grid and
// resumes from it: every completed job it holds is stored in results, which
// is indexed by job ID, and their count is returned with the appender.
//
// A new or empty file gets the grid header. An existing header must match
// the grid exactly; a checkpoint from a different grid is an error, not a
// silent partial merge. Failed results (Err != "") are skipped, so resume
// retries them. When a job appears more than once (a duplicate result raced
// a crash), the first occurrence wins — occurrences are identical anyway, by
// determinism. Only newline-terminated lines are complete: the bytes after
// the last newline are a torn append from a crash, and are cut off before
// anything is appended, so that job re-runs and the file stays loadable.
// Corruption in a complete line is an error, and the file is left as it was.
func OpenCheckpoint(path string, grid *SweepGrid, results []*SweepJobResult) (*Checkpoint, int, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: checkpoint: %w", err)
	}
	c := &Checkpoint{f: f}
	resumed, err := c.resume(grid, results)
	if err != nil {
		f.Close()
		return nil, 0, fmt.Errorf("experiments: checkpoint %s: %w", path, err)
	}
	obsResumed.Add(int64(resumed))
	return c, resumed, nil
}

// resume reads the file's complete lines into results, cuts a torn tail,
// and writes the header to a file that has none.
func (c *Checkpoint) resume(grid *SweepGrid, results []*SweepJobResult) (int, error) {
	raw, err := io.ReadAll(c.f)
	if err != nil {
		return 0, err
	}
	complete := bytes.LastIndexByte(raw, '\n') + 1
	if complete == 0 { // a new file, or one whose header was torn
		if err := c.f.Truncate(0); err != nil {
			return 0, err
		}
		return 0, c.writeLine(headerFor(grid))
	}
	lines := bytes.Split(raw[:complete-1], []byte("\n"))
	var hdr checkpointHeader
	if err := json.Unmarshal(lines[0], &hdr); err != nil || hdr.Type != "header" {
		return 0, errors.New("first line is not a valid header")
	}
	if hdr.Schema != CheckpointSchema {
		return 0, fmt.Errorf("schema %d, want %d", hdr.Schema, CheckpointSchema)
	}
	if want := headerFor(grid); !reflect.DeepEqual(hdr, want) {
		return 0, fmt.Errorf("belongs to a different grid (%s seed %d %v×%v, want %s seed %d %v×%v)",
			hdr.Scenario, hdr.Seed, hdr.Attacks, hdr.Defenses,
			want.Scenario, want.Seed, want.Attacks, want.Defenses)
	}
	resumed := 0
	for i, line := range lines[1:] {
		var res checkpointResult
		if err := json.Unmarshal(line, &res); err != nil || res.Type != "result" {
			return 0, fmt.Errorf("corrupt line %d", i+2)
		}
		if err := grid.CheckResult(res.SweepJobResult); err != nil {
			return 0, fmt.Errorf("line %d: %w", i+2, err)
		}
		if id := grid.JobID(res.Cell, res.Rep); res.Err == "" && results[id] == nil {
			results[id] = &res.SweepJobResult
			resumed++
		}
	}
	return resumed, c.f.Truncate(int64(complete))
}

// Append records one completed job. The write is serialized and fsynced;
// the first failure sticks and is re-reported by Close so a sweep cannot
// silently lose its crash protection.
func (c *Checkpoint) Append(r SweepJobResult) error {
	if c == nil {
		return nil
	}
	return c.writeLine(checkpointResult{Type: "result", SweepJobResult: r})
}

func (c *Checkpoint) writeLine(v any) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.werr != nil {
		return c.werr
	}
	raw, err := json.Marshal(v)
	if err == nil {
		raw = append(raw, '\n')
		if _, err = c.f.Write(raw); err == nil {
			err = c.f.Sync()
		}
	}
	if err != nil {
		c.werr = fmt.Errorf("experiments: checkpoint append: %w", err)
		return c.werr
	}
	return nil
}

// Close releases the file, returning the first append error if any write
// failed.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	err := c.f.Close()
	if c.werr != nil {
		return c.werr
	}
	return err
}
