package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// quickGoldenPath pins the rendered tables and notes of every registered
// experiment at quickCfg(). Regenerate (only when a change to an experiment's
// values is intentional) with:
//
//	OASIS_REGEN_GOLDEN=1 go test ./internal/experiments -run TestQuickExperimentsGolden
var quickGoldenPath = filepath.Join("testdata", "golden-quick-experiments.txt")

// quickResults memoizes registry runs at quickCfg(), so the golden and the
// shape tests share one run of each experiment.
var quickResults = struct {
	sync.Mutex
	byID map[string]*Result
}{byID: map[string]*Result{}}

// quickResult returns the registry entry id's result at quickCfg(), running
// it on first use. Callers must not modify the shared result.
func quickResult(t *testing.T, id string) *Result {
	t.Helper()
	quickResults.Lock()
	defer quickResults.Unlock()
	if res, ok := quickResults.byID[id]; ok {
		return res
	}
	spec, ok := ByID(id)
	if !ok {
		t.Fatalf("no registry entry %q", id)
	}
	res, err := spec.Run(quickCfg())
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	quickResults.byID[id] = res
	return res
}

// TestQuickExperimentsGolden runs the whole registry at CI scale and compares
// every Result.String() byte for byte, so refactors of the figure harnesses
// must keep every figure value.
func TestQuickExperimentsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment in the registry")
	}
	var out strings.Builder
	for _, spec := range Registry() {
		out.WriteString("== " + spec.ID + " ==\n")
		out.WriteString(quickResult(t, spec.ID).String())
	}
	raw := []byte(out.String())
	if os.Getenv("OASIS_REGEN_GOLDEN") != "" {
		if err := os.WriteFile(quickGoldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", quickGoldenPath, len(raw))
		return
	}
	golden, err := os.ReadFile(quickGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, golden) {
		t.Errorf("quick experiment output diverged from %s:\n got: %s\nwant: %s", quickGoldenPath, raw, golden)
	}
}
