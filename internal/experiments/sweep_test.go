package experiments

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/nn"
)

// TestSweepGoldenDeterminism is the acceptance bar for the parallel sweep
// engine: with Replicates ≥ 2, a fixed seed must yield a byte-identical JSON
// report for cell-level worker counts 1, 4, and NumCPU.
func TestSweepGoldenDeterminism(t *testing.T) {
	cfg := SweepConfig{Quick: true, Replicates: 2, Workers: 2}
	if testing.Short() {
		// Short mode trims the grid, not the guarantee: 2 attacks × 2
		// defenses across all three cell-worker counts. One column stays a
		// composed pipeline so the layered-defense cell is held to the same
		// byte-identical bar.
		cfg.Attacks = []string{"rtf", "qbi"}
		cfg.Defenses = []string{"none", "oasis:MR|dpsgd:1,0.1"}
	} else {
		cfg.Attacks = []string{"rtf", "cah", "qbi", "loki"}
	}
	var golden []byte
	for _, cellWorkers := range []int{1, 4, runtime.NumCPU()} {
		cfg.CellWorkers = cellWorkers
		rep, err := RunSweep(cfg)
		if err != nil {
			t.Fatalf("cell-workers=%d: %v", cellWorkers, err)
		}
		raw, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if golden == nil {
			golden = raw
			continue
		}
		if !bytes.Equal(golden, raw) {
			t.Fatalf("sweep JSON diverges at cell-workers=%d:\n%s\nvs golden:\n%s", cellWorkers, raw, golden)
		}
	}
}

// TestReplicateSeeds pins the replicate-seed derivation: the base seed leads,
// every seed is distinct, the sequence is stable, and growing the replicate
// count extends it without rewriting earlier seeds.
func TestReplicateSeeds(t *testing.T) {
	seeds := ReplicateSeeds(42, 5)
	if len(seeds) != 5 {
		t.Fatalf("%d seeds, want 5", len(seeds))
	}
	if seeds[0] != 42 {
		t.Errorf("replicate 0 seed = %d, want the base seed 42", seeds[0])
	}
	seen := map[uint64]bool{}
	for i, s := range seeds {
		if seen[s] {
			t.Errorf("seed %d repeats at replicate %d", s, i)
		}
		seen[s] = true
	}
	again := ReplicateSeeds(42, 5)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatalf("derivation unstable at replicate %d: %d vs %d", i, seeds[i], again[i])
		}
	}
	prefix := ReplicateSeeds(42, 3)
	for i := range prefix {
		if prefix[i] != seeds[i] {
			t.Errorf("ReplicateSeeds(42, 3)[%d] = %d, not a prefix of ReplicateSeeds(42, 5) (%d)",
				i, prefix[i], seeds[i])
		}
	}
	if one := ReplicateSeeds(7, 1); len(one) != 1 || one[0] != 7 {
		t.Errorf("ReplicateSeeds(7, 1) = %v, want [7]", one)
	}
	other := ReplicateSeeds(43, 5)
	if other[1] == seeds[1] {
		t.Error("different base seeds derived the same replicate-1 seed")
	}
}

// TestSweepTableRendersMissingCells: a partial cell list (a failed cell, or a
// hand-trimmed report) must render absent cells as "—", never as a fake
// measured 0.0 / 0.000.
func TestSweepTableRendersMissingCells(t *testing.T) {
	rep := &SweepReport{
		Scenario:   "partial",
		Replicates: 1,
		Attacks:    []string{"rtf", "cah"},
		Defenses:   []string{"none", "prune:0.3"},
		Cells: []SweepCell{
			{Attack: "rtf", Defense: "none", MeanPSNR: 101.5, MeanSSIM: 0.9},
		},
	}
	tbl := rep.Table()
	if got := tbl.Rows[0][1]; got != "101.5 / 0.900" {
		t.Errorf("present cell rendered %q", got)
	}
	if got := tbl.Rows[0][2]; got != "—" {
		t.Errorf("missing rtf×prune cell rendered %q, want —", got)
	}
	for col := 1; col <= 2; col++ {
		if got := tbl.Rows[1][col]; got != "—" {
			t.Errorf("missing cah cell (col %d) rendered %q, want —", col, got)
		}
	}
	if s := tbl.String(); strings.Contains(s, "0.0 / 0.000") {
		t.Errorf("table still renders zero-value placeholders:\n%s", s)
	}
}

// TestSweepTableMeanStd: with more than one replicate the grid cells carry
// the spread, rendered as mean±std.
func TestSweepTableMeanStd(t *testing.T) {
	rep := &SweepReport{
		Scenario:   "spread",
		Replicates: 3,
		Attacks:    []string{"rtf"},
		Defenses:   []string{"none"},
		Cells: []SweepCell{
			{Attack: "rtf", Defense: "none", MeanPSNR: 100.25, StdPSNR: 1.5, MeanSSIM: 0.9, StdSSIM: 0.05},
		},
	}
	if got, want := rep.Table().Rows[0][1], "100.2±1.5 / 0.900±0.050"; got != want {
		t.Errorf("mean±std cell rendered %q, want %q", got, want)
	}
}

// TestSweepReplicatesAggregate runs a tiny 1×2 grid at two replicates and
// checks the aggregation: totals sum over replicates and a defended cell's
// replicate spread is finite (std ≥ 0, means inside the replicate range is
// implied by construction).
func TestSweepReplicatesAggregate(t *testing.T) {
	rep, err := RunSweep(SweepConfig{
		Attacks:    []string{"rtf"},
		Defenses:   []string{"none", "prune:0.3"},
		Replicates: 2,
		Quick:      true,
		Workers:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replicates != 2 || len(rep.Seeds) != 2 {
		t.Fatalf("report replicates/seeds = %d/%d, want 2/2", rep.Replicates, len(rep.Seeds))
	}
	if rep.Seeds[0] != rep.Seed {
		t.Errorf("replicate 0 seed %d is not the base seed %d", rep.Seeds[0], rep.Seed)
	}
	for _, c := range rep.Cells {
		if c.Reconstructions == 0 {
			t.Errorf("cell %s×%s reconstructed nothing over 2 replicates", c.Attack, c.Defense)
		}
		if c.StdPSNR < 0 || c.StdSSIM < 0 || c.StdAccuracy < 0 {
			t.Errorf("cell %s×%s has negative spread: %+v", c.Attack, c.Defense, c)
		}
	}
	// A single-replicate run of the same grid must report zero spread.
	single, err := RunSweep(SweepConfig{
		Attacks: []string{"rtf"}, Defenses: []string{"none"}, Quick: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c := single.Cells[0]; c.StdPSNR != 0 || c.StdSSIM != 0 || c.StdAccuracy != 0 {
		t.Errorf("single replicate reported nonzero spread: %+v", c)
	}
}

// TestSweepGridShape runs the full built-in grid once and checks every
// (attack, defense) cell is present with a scored PSNR, and that the
// undefended column is the per-attack ceiling the defenses pull down from.
func TestSweepGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full 4×5 grid; run without -short")
	}
	// The attack axis is pinned to the built-in families so test-registered
	// kinds (e.g. the failing one below) never leak into this grid.
	attacks := []string{"cah", "loki", "qbi", "rtf"}
	rep, err := RunSweep(SweepConfig{Attacks: attacks, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	defenses := DefaultSweepDefenses()
	if len(rep.Cells) != len(attacks)*len(defenses) {
		t.Fatalf("%d cells, want %d×%d", len(rep.Cells), len(attacks), len(defenses))
	}
	none := make(map[string]float64)
	for _, c := range rep.Cells {
		if c.Reconstructions == 0 {
			t.Errorf("cell %s×%s reconstructed nothing", c.Attack, c.Defense)
		}
		if c.Defense == "none" {
			if c.MeanPSNR < 40 {
				t.Errorf("undefended %s mean PSNR %.1f dB; expected near-verbatim leakage", c.Attack, c.MeanPSNR)
			}
			none[c.Attack] = c.MeanPSNR
		}
	}
	for _, c := range rep.Cells {
		if c.Defense == "none" {
			continue
		}
		if c.MeanPSNR >= none[c.Attack] {
			t.Errorf("defense %s did not lower %s PSNR (%.1f ≥ %.1f)",
				c.Defense, c.Attack, c.MeanPSNR, none[c.Attack])
		}
	}
	// The grid table carries one row per attack and one column per defense.
	tbl := rep.Table()
	if len(tbl.Rows) != len(attacks) {
		t.Errorf("grid table has %d rows, want %d", len(tbl.Rows), len(attacks))
	}
	if len(tbl.Header) != len(defenses)+1 {
		t.Errorf("grid table has %d columns, want %d", len(tbl.Header), len(defenses)+1)
	}
}

// TestSweepGridOrder: Order hands out every job exactly once, the cells of
// each replicate, which share its rendered images, come out next to each
// other, and so do the defense columns of each (attack, replicate), which
// calibrate the same attack, in defense order.
func TestSweepGridOrder(t *testing.T) {
	grid, err := NewSweepGrid(SweepConfig{
		Attacks:    []string{"cah", "rtf", "qbi"},
		Defenses:   []string{"none", "prune:0.3", "dpsgd:1,0.1", "ats:MR"},
		Replicates: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	order := grid.Order()
	if len(order) != grid.NumJobs() {
		t.Fatalf("Order has %d jobs, want %d", len(order), grid.NumJobs())
	}
	seen := make([]bool, grid.NumJobs())
	for _, id := range order {
		if id < 0 || id >= grid.NumJobs() || seen[id] {
			t.Fatalf("Order %v is not a permutation of 0..%d", order, grid.NumJobs()-1)
		}
		seen[id] = true
	}
	perRep := grid.NumCells()
	for start := 0; start < len(order); start += perRep {
		rep := grid.Job(order[start]).Rep
		for i, id := range order[start : start+perRep] {
			if got := grid.Job(id).Rep; got != rep {
				t.Fatalf("Order position %d is rep %d inside the rep %d run", start+i, got, rep)
			}
		}
	}
	nd := len(grid.Defenses)
	for start := 0; start < len(order); start += nd {
		first := grid.Job(order[start])
		for i, id := range order[start : start+nd] {
			job := grid.Job(id)
			if job.Attack != first.Attack || job.Rep != first.Rep || job.Defense != grid.Defenses[i] {
				t.Fatalf("Order position %d is %s×%s rep %d; want the %s rep %d columns together, in defense order",
					start+i, job.Attack, job.Defense, job.Rep, first.Attack, first.Rep)
			}
		}
	}
}

// TestSweepRejectsUnknownAttack keeps the axis validation wired to the
// registry.
func TestSweepRejectsUnknownAttack(t *testing.T) {
	_, err := RunSweep(SweepConfig{Attacks: []string{"definitely-not-real"}, Quick: true})
	if err == nil {
		t.Fatal("unknown attack kind accepted")
	}
	for _, kind := range []string{"rtf", "cah", "qbi", "loki"} {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not list registered kind %q", err, kind)
		}
	}
}

// TestSweepRejectsBadDefenseUpFront: a malformed defense pipeline at the end
// of the column list must fail before any cell runs, naming the offending
// segment.
func TestSweepRejectsBadDefenseUpFront(t *testing.T) {
	_, err := RunSweep(SweepConfig{
		Attacks:  []string{"rtf"},
		Defenses: []string{"none", "oasis:MR|tinfoil"},
		Quick:    true,
	})
	if err == nil {
		t.Fatal("malformed defense pipeline accepted")
	}
	if !strings.Contains(err.Error(), "segment 2") {
		t.Errorf("error %q does not name the offending segment", err)
	}
	for _, kind := range defense.Names() {
		if !strings.Contains(err.Error(), kind) {
			t.Errorf("error %q does not list registered defense kind %q", err, kind)
		}
	}
}

// TestSweepPartialReportOnError: a cell that fails mid-grid must surface its
// error AND the partial report carrying every fully-completed cell in grid
// order, so callers can dump finished work before exiting. The failing cell
// is driven by a test-registered defense kind that passes parse-only
// validation (nil Rng) but fails per-client construction inside the run —
// the default defense axis is a fixed list, so the extra kind leaks nowhere.
func TestSweepPartialReportOnError(t *testing.T) {
	if !defense.Known("sweep-test-explode") {
		err := defense.Register("sweep-test-explode", func(arg string, cfg defense.Config) (defense.Defense, error) {
			if cfg.Rng == nil {
				p, err := defense.NewPipeline("prune:0.5", defense.Config{})
				return p, err
			}
			return nil, errors.New("intentional construction failure")
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	rep, err := RunSweep(SweepConfig{
		Attacks:     []string{"rtf"},
		Defenses:    []string{"none", "prune:0.3", "sweep-test-explode"},
		Replicates:  2,
		CellWorkers: 4,
		Quick:       true,
		Workers:     2,
	})
	if err == nil {
		t.Fatal("failing defense cell did not error")
	}
	if !strings.Contains(err.Error(), "sweep cell rtf×sweep-test-explode") {
		t.Errorf("error %q does not name the failing cell", err)
	}
	if rep == nil {
		t.Fatal("no partial report attached to the cell failure")
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("partial report carries %d cells, want the 2 completed ones", len(rep.Cells))
	}
	for i, def := range []string{"none", "prune:0.3"} {
		if rep.Cells[i].Attack != "rtf" || rep.Cells[i].Defense != def {
			t.Errorf("partial cell %d = %s×%s, want rtf×%s (grid order)",
				i, rep.Cells[i].Attack, rep.Cells[i].Defense, def)
		}
	}
	// The grid table over the partial report renders the failed cell as —.
	tbl := rep.Table()
	if got := tbl.Rows[0][3]; got != "—" {
		t.Errorf("failed cell rendered %q, want —", got)
	}
}

// sweepTestFlakyOn arms the "sweep-test-flaky" attack constructor. The
// attack axis defaults to every registered kind, so the registration leaks
// into any later test sweeping the dynamic axis — disarmed, the kind is
// just rtf under another name and those sweeps still succeed.
var sweepTestFlakyOn atomic.Bool

// TestSweepDrainsPartialCellReplicates is the regression test for the drain
// bugfix: under high CellWorkers a replicate failure used to discard every
// other replicate of that cell — including ones that had already finished.
// A test-registered attack whose constructor fails on a seed-keyed coin flip
// makes some replicates of one cell fail while others complete; the cell
// must still appear with its completed replicates aggregated and the failed
// count recorded, byte-identically to a serial (CellWorkers=1) run.
func TestSweepDrainsPartialCellReplicates(t *testing.T) {
	if !attack.Known("sweep-test-flaky") {
		err := attack.Register("sweep-test-flaky", func(cfg attack.Config) (attack.Attack, error) {
			if sweepTestFlakyOn.Load() && cfg.Rng.Uint64()%2 == 1 {
				return nil, errors.New("intentional flaky calibration failure")
			}
			return attack.New("rtf", cfg)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sweepTestFlakyOn.Store(true)
	defer sweepTestFlakyOn.Store(false)
	// Predict each replicate's fate from the exact keyed stream the sim hands
	// the attack constructor, and insist the outcomes are mixed — an all-pass
	// or all-fail draw would make this test vacuous.
	const replicates = 3
	seeds := ReplicateSeeds(DefaultSweepScenario().Seed, replicates)
	wantFailed := 0
	for _, s := range seeds {
		if nn.RandSource(s+3, 0xa77ac).Uint64()%2 == 1 {
			wantFailed++
		}
	}
	if wantFailed == 0 || wantFailed == replicates {
		t.Fatalf("replicate outcomes not mixed (%d/%d fail); pick different seeds", wantFailed, replicates)
	}

	run := func(cellWorkers int) (*SweepReport, error) {
		return RunSweep(SweepConfig{
			Attacks:     []string{"rtf", "sweep-test-flaky"},
			Defenses:    []string{"none"},
			Replicates:  replicates,
			CellWorkers: cellWorkers,
			Quick:       true,
			Workers:     2,
		})
	}
	rep, err := run(runtime.NumCPU())
	if err == nil {
		t.Fatal("flaky cell did not surface its replicate failures")
	}
	if !strings.Contains(err.Error(), "sweep cell sweep-test-flaky×none") {
		t.Errorf("error %q does not name the flaky cell", err)
	}
	if rep == nil {
		t.Fatal("no partial report attached to the replicate failure")
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("partial report carries %d cells, want both (flaky cell has completed replicates)", len(rep.Cells))
	}
	if rep.Cells[0].Attack != "rtf" || rep.Cells[1].Attack != "sweep-test-flaky" {
		t.Fatalf("cells out of grid order: %s then %s", rep.Cells[0].Attack, rep.Cells[1].Attack)
	}
	clean, flaky := rep.Cells[0], rep.Cells[1]
	if clean.FailedReplicates != 0 {
		t.Errorf("rtf×none reports %d failed replicates, want 0", clean.FailedReplicates)
	}
	if flaky.FailedReplicates != wantFailed {
		t.Errorf("flaky cell reports %d failed replicates, want %d", flaky.FailedReplicates, wantFailed)
	}
	if flaky.Reconstructions == 0 {
		t.Error("flaky cell's completed replicates were dropped: no reconstructions aggregated")
	}

	// The drained partial report must be deterministic across cell-worker
	// counts, same as the success path.
	serial, serr := run(1)
	if serr == nil || serial == nil {
		t.Fatalf("serial rerun: err=%v rep=%v", serr, serial)
	}
	want, err := serial.JSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("partial report diverges across cell-worker counts:\n%s\nvs serial:\n%s", got, want)
	}
}

// TestSweepExperimentRegistered drives the registry entry end to end in
// quick mode and checks the artifacts land in OutDir.
func TestSweepExperimentRegistered(t *testing.T) {
	if testing.Short() {
		t.Skip("full grid via the experiment wrapper; run without -short")
	}
	spec, ok := ByID("sweep")
	if !ok {
		t.Fatal("sweep experiment not registered")
	}
	res, err := spec.Run(Config{Quick: true, Seed: 42, OutDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tables) != 2 {
		t.Errorf("%d tables, want grid + cells", len(res.Tables))
	}
	if len(res.Artifacts) != 2 {
		t.Errorf("%d artifacts, want sweep.csv + sweep.json: %v", len(res.Artifacts), res.Artifacts)
	}
}
