// Package experiments contains one runner per table and figure in the
// paper's evaluation (§IV), plus three mechanism ablations. Every runner
// prints the same rows/series the paper reports (PSNR per batch-size ×
// attacked-neurons grid, PSNR per transformation, accuracy per
// transformation, …) and can optionally emit CSV and PNG artifacts.
//
// Absolute values differ from the paper — the substrate is a pure-Go
// simulator over synthetic datasets, not a GPU testbed over ImageNet (see
// README, "Running the paper experiments") — but the comparative shape is reproduced and asserted by the
// test suite: who wins, the ordering of transforms, and where single
// transforms fail.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/metrics"
)

// Config controls experiment scale and output.
type Config struct {
	// Quick selects reduced grids sized for CI and testing.B; the full
	// grids match the paper's sweep structure.
	Quick bool
	// Seed makes the whole experiment deterministic.
	Seed uint64
	// OutDir, when non-empty, receives CSV tables and PNG figures.
	OutDir string
	// Log receives progress lines; nil discards them.
	Log io.Writer
	// Workers bounds client concurrency in FL-round experiments (0 =
	// NumCPU); results are bit-identical across worker counts.
	Workers int
}

func (c Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// Result is what an experiment hands back: printable tables, free-form
// notes, and any files written.
type Result struct {
	ID        string
	Tables    []*metrics.Table
	Notes     []string
	Artifacts []string
}

// String renders all tables and notes.
func (r *Result) String() string {
	out := ""
	for _, t := range r.Tables {
		out += t.String() + "\n"
	}
	for _, n := range r.Notes {
		out += "note: " + n + "\n"
	}
	return out
}

// saveCSV writes a table as CSV into cfg.OutDir (no-op without an OutDir).
func (r *Result) saveCSV(cfg Config, name string, t *metrics.Table) error {
	if cfg.OutDir == "" {
		return nil
	}
	path := filepath.Join(cfg.OutDir, name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
		return fmt.Errorf("experiments: %w", err)
	}
	r.Artifacts = append(r.Artifacts, path)
	return nil
}

// Spec describes a runnable experiment.
type Spec struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Result, error)
}

// Registry returns all experiments in paper order.
func Registry() []Spec {
	return []Spec{
		{ID: "fig2", Title: "Figure 2: PSNR illustration (perfect vs OASIS reconstruction)", Run: Fig2},
		{ID: "fig3", Title: "Figure 3: RTF avg PSNR vs batch size × attacked neurons", Run: Fig3},
		{ID: "fig4", Title: "Figure 4: CAH avg PSNR vs batch size × attacked neurons", Run: Fig4},
		{ID: "fig5", Title: "Figure 5: RTF PSNR per transformation", Run: Fig5},
		{ID: "fig6", Title: "Figure 6: CAH PSNR per transformation", Run: Fig6},
		{ID: "visual", Title: "Figures 7-12: visual reconstructions per transformation", Run: Visual},
		{ID: "fig13", Title: "Figure 13: linear-model gradient inversion per transformation", Run: Fig13},
		{ID: "fig14", Title: "Figure 14: RTF against the ATS replacement defense", Run: Fig14},
		{ID: "table1", Title: "Table I: model accuracy with and without OASIS", Run: Table1},
		{ID: "prop1", Title: "Ablation: Proposition-1 activation-set analysis", Run: Prop1},
		{ID: "dp", Title: "Ablation: DP noise vs reconstruction and utility (§V)", Run: DPTradeoff},
		{ID: "pm", Title: "Ablation: mean restoration in OASIS transforms", Run: PreserveMean},
		{ID: "robust", Title: "Scenario: robust aggregation under a poisoning client", Run: Robust},
		{ID: "scenario", Title: "Scenario: declarative large-scale FL populations (internal/sim presets)", Run: ScenarioSim},
		{ID: "sweep", Title: "Sweep: attack × defense grid (registry attacks × §V defenses, PSNR/SSIM per cell)", Run: Sweep},
	}
}

// ByID finds an experiment by identifier.
func ByID(id string) (Spec, bool) {
	for _, s := range Registry() {
		if s.ID == id {
			return s, true
		}
	}
	return Spec{}, false
}

// IDs returns the registry identifiers in order.
func IDs() []string {
	specs := Registry()
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// evalSet lists the two evaluation datasets with the attack hyperparameters
// the paper pins per dataset.
type evalSet struct {
	ds   data.Dataset
	dims attack.ImageDims
	// (B, n) pairs for Fig 5 (RTF) and Fig 6 (CAH), from the paper.
	rtfPairs [][2]int
	cahPairs [][2]int
}

func datasets(cfg Config) []evalSet {
	imnet := data.NewSynthImageNet(cfg.Seed)
	cifar := data.NewSynthCIFAR100(cfg.Seed)
	mk := func(ds data.Dataset) attack.ImageDims {
		c, h, w := ds.Shape()
		return attack.ImageDims{C: c, H: h, W: w}
	}
	sets := []evalSet{
		{
			ds: imnet, dims: mk(imnet),
			rtfPairs: [][2]int{{8, 900}, {64, 800}},
			cahPairs: [][2]int{{8, 100}, {64, 700}},
		},
		{
			ds: cifar, dims: mk(cifar),
			rtfPairs: [][2]int{{8, 500}, {64, 600}},
			cahPairs: [][2]int{{8, 300}, {64, 600}},
		},
	}
	if cfg.Quick {
		// Quick mode keeps both datasets but shrinks the pinned pairs.
		sets[0].rtfPairs = [][2]int{{8, 200}}
		sets[0].cahPairs = [][2]int{{8, 100}}
		sets[1].rtfPairs = [][2]int{{8, 200}}
		sets[1].cahPairs = [][2]int{{8, 150}}
	}
	return sets
}
