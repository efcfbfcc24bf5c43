package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"

	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/sim"
)

// DefaultSweepDefenses is the defense axis of the attack×defense grid: the
// undefended baseline, one representative of each §V defense family (noise,
// sparsification, transformation replacement), and one composed pipeline —
// OASIS augmentation stacked with DP noise — the layered deployment the
// paper argues population-scale attacks must be met with.
func DefaultSweepDefenses() []string {
	return []string{"none", "dpsgd:1,0.1", "prune:0.3", "ats:MR", "oasis:MR|dpsgd:1,0.1"}
}

// SweepConfig shapes an attack×defense grid evaluation. Every cell runs the
// same base scenario with only the attack kind, defense spec, and replicate
// seed overridden, so the grid isolates the attack/defense interaction from
// population effects.
type SweepConfig struct {
	// Base is the scenario every cell runs; its Attack schedule (neurons,
	// rounds) is kept and only Attack.Kind is overridden per cell. Zero
	// Base means DefaultSweepScenario().
	Base sim.Scenario
	// Attacks lists the attack kinds of the grid rows (default: every
	// registered family, attack.Names()).
	Attacks []string
	// Defenses lists the defense pipeline specs of the grid columns —
	// arbitrary '|'-chains resolved by the defense registry, e.g.
	// "oasis:MR|dpsgd:1,0.1"; "none" (or "") is the undefended baseline
	// (default: DefaultSweepDefenses()).
	Defenses []string
	// Replicates re-runs every (attack, defense) cell at this many derived
	// seeds (ReplicateSeeds), turning single-seed point estimates into
	// mean±std over independent populations. ≤1 means one run at the base
	// seed.
	Replicates int
	// Workers bounds client concurrency inside each cell's scenario run
	// (sim.Options.Workers) — the inner, per-cell knob.
	Workers int
	// CellWorkers bounds how many cell×replicate runs execute concurrently —
	// the outer, grid-level knob (0 = NumCPU, 1 = sequential). Results merge
	// in deterministic grid order, so the report is byte-identical for every
	// value.
	CellWorkers int
	// Quick caps each cell's scenario for CI (sim.Options.Quick).
	Quick bool
	// Log receives per-run progress lines; nil discards them. Writes are
	// serialized, so any io.Writer is safe under cell concurrency.
	Log io.Writer
	// Checkpoint, when set, is the JSONL file the sweep resumes from and
	// appends every freshly-completed job to (OpenCheckpoint): completed
	// jobs in it are not re-run, failed ones are retried, and the report is
	// byte-identical to a run that computed every job fresh. An existing
	// file must describe the same grid.
	Checkpoint string
}

// SweepCell is one (attack, defense) grid entry, aggregated over the
// replicate seeds: capture/reconstruction totals and mean±std of the
// per-replicate attack PSNR, SSIM, and final accuracy.
type SweepCell struct {
	Attack          string  `json:"attack"`
	Defense         string  `json:"defense"`
	Captures        int     `json:"captures"`
	Reconstructions int     `json:"reconstructions"`
	MeanPSNR        float64 `json:"mean_psnr"`
	StdPSNR         float64 `json:"std_psnr"`
	MeanSSIM        float64 `json:"mean_ssim"`
	StdSSIM         float64 `json:"std_ssim"`
	MeanAccuracy    float64 `json:"mean_accuracy"`
	StdAccuracy     float64 `json:"std_accuracy"`
	// FailedReplicates counts replicates that errored; the cell's statistics
	// are over the completed ones only. Zero on the success path (and then
	// omitted from JSON, so fully-successful sweep reports keep their
	// historical bytes).
	FailedReplicates int `json:"failed_replicates,omitempty"`
}

// SweepReport is the structured outcome of an attack×defense sweep. For a
// fixed base scenario seed it is byte-identical across SweepConfig.Workers
// and SweepConfig.CellWorkers values.
type SweepReport struct {
	Scenario   string      `json:"scenario"`
	Seed       uint64      `json:"seed"`
	Replicates int         `json:"replicates"`
	Seeds      []uint64    `json:"seeds"`
	Attacks    []string    `json:"attacks"`
	Defenses   []string    `json:"defenses"`
	Cells      []SweepCell `json:"cells"`

	// Trace is the sweep's observability summary. RunSweep never sets it —
	// only CLIs do, and only when tracing was requested — so sweep JSON is
	// byte-identical to older builds whenever observability is off.
	Trace *obs.TraceSummary `json:"trace,omitempty"`
}

// JSON renders the report as indented JSON.
func (r *SweepReport) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// cellKey indexes a report's cells by grid coordinates.
func cellKey(attack, defense string) string { return attack + "\x00" + defense }

// Table renders the grid as one metrics table: a row per attack, a
// "PSNR dB / SSIM" cell per defense (each "mean±std" when the sweep ran more
// than one replicate). Absent cells — a partial report after a failed cell,
// or a hand-trimmed cell list — render as "—" instead of masquerading as a
// measured 0.0 / 0.000.
func (r *SweepReport) Table() *metrics.Table {
	header := append([]string{"attack"}, r.Defenses...)
	t := metrics.NewTable(
		fmt.Sprintf("Attack × defense sweep over scenario %q (per-cell mean PSNR dB / SSIM, %d replicate(s))",
			r.Scenario, max(r.Replicates, 1)),
		header...)
	byKey := make(map[string]SweepCell, len(r.Cells))
	for _, c := range r.Cells {
		byKey[cellKey(c.Attack, c.Defense)] = c
	}
	for _, a := range r.Attacks {
		row := []string{a}
		for _, d := range r.Defenses {
			c, ok := byKey[cellKey(a, d)]
			switch {
			case !ok:
				row = append(row, "—")
			case r.Replicates > 1:
				row = append(row, fmt.Sprintf("%.1f±%.1f / %.3f±%.3f",
					c.MeanPSNR, c.StdPSNR, c.MeanSSIM, c.StdSSIM))
			default:
				row = append(row, fmt.Sprintf("%.1f / %.3f", c.MeanPSNR, c.MeanSSIM))
			}
		}
		t.AddRow(row...)
	}
	return t
}

// CellTable renders the flat per-cell detail (one row per grid entry), with
// the replicate spread only when one was actually measured (Replicates > 1),
// matching Table().
func (r *SweepReport) CellTable() *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Sweep cells for scenario %q over %d replicate(s)", r.Scenario, max(r.Replicates, 1)),
		"attack", "defense", "captures", "recon", "PSNR", "SSIM", "accuracy")
	for _, c := range r.Cells {
		psnr, ssim, acc := fmt.Sprintf("%.1f", c.MeanPSNR),
			fmt.Sprintf("%.3f", c.MeanSSIM), fmt.Sprintf("%.3f", c.MeanAccuracy)
		if r.Replicates > 1 {
			psnr = fmt.Sprintf("%s±%.1f", psnr, c.StdPSNR)
			ssim = fmt.Sprintf("%s±%.3f", ssim, c.StdSSIM)
			acc = fmt.Sprintf("%s±%.3f", acc, c.StdAccuracy)
		}
		t.AddRow(c.Attack, c.Defense,
			fmt.Sprintf("%d", c.Captures),
			fmt.Sprintf("%d", c.Reconstructions),
			psnr, ssim, acc)
	}
	return t
}

// DefaultSweepScenario is the base population the sweep grid runs when the
// caller supplies none: small enough that the full 4×5 grid finishes in CI
// time, reliable (no dropout/stragglers) so every cell's PSNR measures the
// attack/defense interaction and nothing else.
func DefaultSweepScenario() sim.Scenario {
	return sim.Scenario{
		Name:        "sweep-base",
		Description: "Attack×defense grid base: 12 reliable IID clients, one early strike round.",
		Seed:        42,
		Clients:     12, Rounds: 3, ClientsPerRound: 6, BatchSize: 4,
		Dataset:     sim.DatasetSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Samples: 240},
		Partition:   "iid",
		Attack:      sim.AttackSpec{Neurons: 32, AnticipatedBatch: 4, Rounds: []int{1}},
		Model:       sim.ArchSpec{Kind: "mlp", Hidden: 16},
		TestSamples: 64,
	}
}

// replicateSeedSalt keys the dedicated stream replicate seeds derive from.
// The stream exists so the derivation can never collide with any scenario-
// internal stream (which are all keyed off the scenario seed with their own
// salts) and stays stable as those streams evolve.
const replicateSeedSalt = 0x4e91_c0de

// ReplicateSeeds derives the scenario seed for each of n replicates from the
// base seed: replicate 0 runs the base seed itself (so Replicates:1
// reproduces a plain single-seed sweep) and later replicates draw distinct
// seeds from a dedicated keyed stream. The sequence is stable — growing n
// extends it without changing earlier seeds.
func ReplicateSeeds(base uint64, n int) []uint64 {
	if n < 1 {
		n = 1
	}
	seeds := make([]uint64, n)
	seeds[0] = base
	seen := map[uint64]bool{base: true}
	rng := nn.RandSource(base, replicateSeedSalt)
	for i := 1; i < n; i++ {
		s := rng.Uint64()
		for seen[s] { // astronomically rare; dedup keeps populations independent
			s = rng.Uint64()
		}
		seen[s] = true
		seeds[i] = s
	}
	return seeds
}

// RunSweep evaluates the attack×defense grid: every registered attack (or
// cfg.Attacks) against every defense spec (or DefaultSweepDefenses), one
// scenario run per (cell, replicate), aggregated to mean±std per cell.
// Cell×replicate runs dispatch onto a bounded pool of cfg.CellWorkers in
// SweepGrid.Order (replicate-major, so a replicate's cells share rendered
// images and one (attack, replicate)'s defense columns share a calibration)
// and merge in deterministic grid order (SweepGrid.Merge), so the report is
// byte-identical for every CellWorkers (and per-cell Workers) value — and
// to a distributed run of the same grid, which shares this job layer.
// Progress lines follow completion, so even with one cell worker they come
// in dispatch order, not in the cell-major order of job IDs.
//
// On a cell failure the error is returned together with the partial report
// holding every fully-completed cell in grid order, so callers can dump
// finished work before exiting.
func RunSweep(cfg SweepConfig) (*SweepReport, error) {
	grid, err := NewSweepGrid(cfg)
	if err != nil {
		return nil, err
	}
	ctx, runSpan := obs.Start(context.Background(), "sweep.run",
		obs.String("scenario", grid.Base.Name), obs.Uint64("seed", grid.Base.Seed))
	defer runSpan.End()

	// Seed the result table with checkpointed work, then dispatch only the
	// remaining jobs onto the bounded cell-level pool. Each job owns a deep
	// scenario copy (WithSeed), writes to its own result slot, and
	// serializes its progress line and checkpoint append, so jobs never
	// share mutable state.
	nJobs := grid.NumJobs()
	results := make([]*SweepJobResult, nJobs)
	var ckpt *Checkpoint
	if cfg.Checkpoint != "" {
		var resumed int
		if ckpt, resumed, err = OpenCheckpoint(cfg.Checkpoint, grid, results); err != nil {
			return nil, err
		}
		if resumed > 0 && cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "sweep: resumed %d/%d jobs from %s\n", resumed, nJobs, cfg.Checkpoint)
		}
	}
	todo := make([]int, 0, nJobs)
	for _, id := range grid.Order() {
		if results[id] == nil {
			todo = append(todo, id)
		}
	}
	workers := cfg.CellWorkers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	workers = min(workers, max(len(todo), 1))
	obsCellWorkers.Set(float64(workers))
	jobs := make(chan int)
	var wg sync.WaitGroup
	var logMu sync.Mutex
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for {
				// The lease span measures how long this worker sat idle
				// waiting for the feeder — grid-level pool utilization.
				_, lease := obs.Start(ctx, "sweep.lease", obs.Int("worker", worker))
				id, ok := <-jobs
				lease.End()
				if !ok {
					return
				}
				res := grid.RunJob(ctx, id)
				results[id] = &res
				logMu.Lock()
				_ = ckpt.Append(res) // the first failure sticks; Close re-reports it
				if cfg.Log != nil && res.Err == "" {
					fmt.Fprintf(cfg.Log, "sweep %s × %s [seed %d]: %d recon, PSNR %.1f dB, SSIM %.3f\n",
						res.Attack, res.Defense, res.Seed, res.Reconstructions, res.PSNR, res.SSIM)
				}
				logMu.Unlock()
			}
		}(w)
	}
	for _, id := range todo {
		jobs <- id
	}
	close(jobs)
	wg.Wait()

	// Merge in deterministic grid order: cell content depends only on its
	// own seeded runs, so the report is independent of scheduling. Every
	// completed replicate is drained into the partial report — a cell with
	// failures still aggregates its finished runs (FailedReplicates records
	// the gap) and is omitted only when nothing completed, so a crash under
	// high CellWorkers never discards work that was already done. The first
	// failure in grid order becomes the returned error.
	_, mergeSpan := obs.Start(ctx, "sweep.merge", obs.Int("cells", grid.NumCells()))
	defer mergeSpan.End()
	report, err := grid.Merge(results)
	if cerr := ckpt.Close(); err == nil {
		err = cerr
	}
	return report, err
}

// Sweep runs the attack×defense grid as a registry experiment, emitting the
// grid table, the per-cell table, and (with an OutDir) sweep.csv/sweep.json.
func Sweep(cfg Config) (*Result, error) {
	base := DefaultSweepScenario()
	if cfg.Seed != 0 {
		base.Seed = cfg.Seed
	}
	rep, err := RunSweep(SweepConfig{Base: base, Workers: cfg.Workers, Quick: cfg.Quick, Log: cfg.Log})
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "sweep"}
	grid := rep.Table()
	res.Tables = append(res.Tables, grid, rep.CellTable())
	res.Notes = append(res.Notes,
		"grid JSON is bit-identical across -workers and -cell-workers for a fixed seed; 'none' is the undefended ceiling")
	if err := res.saveCSV(cfg, "sweep.csv", grid); err != nil {
		return nil, err
	}
	if cfg.OutDir != "" {
		raw, err := rep.JSON()
		if err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.OutDir, "sweep.json")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
		res.Artifacts = append(res.Artifacts, path)
	}
	return res, nil
}
