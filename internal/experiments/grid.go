package experiments

import (
	"context"
	"fmt"
	"strings"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/sim"
)

// The sweep grid's job layer. A sweep is a flat list of (cell, replicate)
// jobs whose layout depends only on the axes and the replicate count — never
// on scheduling — so the same enumeration, execution, and merge code backs
// the in-process pool (RunSweep) and the internal/dist coordinator/worker
// scale-out, and both resume through the one JSONL checkpoint
// (OpenCheckpoint, keyed by JobID). Jobs are identified in cell-major order
// (JobID) but handed out replicate-major (Order), so the cells of one
// replicate, and within them the defense columns of one (attack,
// replicate), run back to back. Merge folds any assignment of job
// results back in deterministic grid order, which is what makes the final
// report byte-identical across worker counts, processes, dispatch orders,
// and crash/resume histories.

// SweepJob identifies one (cell, replicate) scenario run of a sweep grid.
type SweepJob struct {
	// ID is the job's dense index: Cell*Replicates + Rep.
	ID int `json:"id"`
	// Cell is the grid-order cell index: attackIdx*len(Defenses)+defenseIdx.
	Cell int `json:"cell"`
	// Rep is the replicate index within the cell.
	Rep     int    `json:"rep"`
	Attack  string `json:"attack"`
	Defense string `json:"defense"`
	// Seed is the derived scenario seed the replicate runs at.
	Seed uint64 `json:"seed"`
}

// SweepJobResult is the complete outcome of one sweep job — exactly the
// per-replicate statistics the grid merge consumes, so a result can cross a
// process boundary (gob) or a restart (JSONL checkpoint) without changing
// the final report by a byte. Float64 fields survive a JSON round trip
// bit-exactly (encoding/json emits the shortest representation that parses
// back to the same value).
type SweepJobResult struct {
	Cell            int     `json:"cell"`
	Rep             int     `json:"rep"`
	Attack          string  `json:"attack"`
	Defense         string  `json:"defense"`
	Seed            uint64  `json:"seed"`
	Captures        int     `json:"captures"`
	Reconstructions int     `json:"reconstructions"`
	PSNR            float64 `json:"psnr"`
	SSIM            float64 `json:"ssim"`
	Accuracy        float64 `json:"accuracy"`
	// Err carries a failed run's error text; empty means success. A failed
	// result still merges (the cell records a FailedReplicate) — it is a
	// deterministic outcome, not a transport problem.
	Err string `json:"err,omitempty"`
}

// SweepGrid is a resolved sweep configuration: validated axes, derived
// replicate seeds, and the per-job scenario recipe. It is immutable after
// NewSweepGrid, so any number of goroutines (or processes holding an
// identical config) can enumerate and run jobs against it. A job's ID
// (JobID) is cell-major and is what results, checkpoints and Merge key on;
// Order is only the sequence jobs are dispatched in.
type SweepGrid struct {
	Base       sim.Scenario
	Attacks    []string
	Defenses   []string
	Replicates int
	Seeds      []uint64
	Quick      bool
	Workers    int
}

// NewSweepGrid resolves a SweepConfig into its grid: defaults applied, both
// axes validated up front (so a typo at the end of a list cannot discard
// minutes of completed work), and replicate seeds derived.
func NewSweepGrid(cfg SweepConfig) (*SweepGrid, error) {
	base := cfg.Base
	if base.Clients == 0 {
		base = DefaultSweepScenario()
	}
	attacks := cfg.Attacks
	if len(attacks) == 0 {
		attacks = attack.Names()
	}
	defenses := cfg.Defenses
	if len(defenses) == 0 {
		defenses = DefaultSweepDefenses()
	}
	for _, atk := range attacks {
		if !attack.Known(atk) {
			return nil, fmt.Errorf("experiments: sweep: unknown attack kind %q (want one of %s)",
				atk, strings.Join(attack.Names(), ", "))
		}
	}
	for _, def := range defenses {
		if def == "none" || def == "" {
			continue
		}
		if _, err := defense.NewPipeline(def, defense.Config{}); err != nil {
			return nil, fmt.Errorf("experiments: sweep: %w", err)
		}
	}
	replicates := max(cfg.Replicates, 1)
	return &SweepGrid{
		Base:       base,
		Attacks:    attacks,
		Defenses:   defenses,
		Replicates: replicates,
		Seeds:      ReplicateSeeds(base.Seed, replicates),
		Quick:      cfg.Quick,
		Workers:    cfg.Workers,
	}, nil
}

// NumCells is the grid size: len(Attacks) × len(Defenses).
func (g *SweepGrid) NumCells() int { return len(g.Attacks) * len(g.Defenses) }

// NumJobs is the total job count: NumCells × Replicates.
func (g *SweepGrid) NumJobs() int { return g.NumCells() * g.Replicates }

// JobID maps grid coordinates to the dense job index.
func (g *SweepGrid) JobID(cell, rep int) int { return cell*g.Replicates + rep }

// Order lists every job ID in dispatch order: replicate-major, then by
// attack, then by defense. Every cell of a replicate runs at its seed on the
// same train and test images, and the defense columns of one (attack,
// replicate) calibrate the identical attack, so running them back to back
// lets sim reuse the rendered images and the calibration while a run still
// holds them.
func (g *SweepGrid) Order() []int {
	nd := len(g.Defenses)
	ids := make([]int, 0, g.NumJobs())
	for rep := range g.Replicates {
		for a := range g.Attacks {
			for d := range nd {
				ids = append(ids, g.JobID(a*nd+d, rep))
			}
		}
	}
	return ids
}

// Job returns the job at the given dense index.
func (g *SweepGrid) Job(id int) SweepJob {
	cell, rep := id/g.Replicates, id%g.Replicates
	return SweepJob{
		ID:      id,
		Cell:    cell,
		Rep:     rep,
		Attack:  g.Attacks[cell/len(g.Defenses)],
		Defense: g.Defenses[cell%len(g.Defenses)],
		Seed:    g.Seeds[rep],
	}
}

// JobScenario builds the isolated scenario a job runs: a deep copy of the
// base at the replicate's derived seed with only the attack kind and defense
// spec overridden.
func (g *SweepGrid) JobScenario(id int) sim.Scenario {
	job := g.Job(id)
	sc := g.Base.WithSeed(job.Seed)
	sc.Attack.Kind = job.Attack
	if job.Defense == "none" || job.Defense == "" {
		sc.Defense = sim.DefenseSpec{}
	} else {
		sc.Defense = sim.DefenseSpec{Kind: job.Defense, Fraction: 1}
	}
	return sc
}

// RunJob executes one job's scenario under the grid's options and packages
// the outcome. Failures land in the result's Err field rather than an error
// return — a job result is always mergeable.
func (g *SweepGrid) RunJob(ctx context.Context, id int) SweepJobResult {
	return RunSweepJob(ctx, g.Job(id), g.JobScenario(id), sim.Options{Quick: g.Quick, Workers: g.Workers})
}

// RunSweepJob runs one already-materialized sweep job: the scenario executes
// under a "sweep.cell" obs span and the report's attack/accuracy statistics
// are extracted into the transportable result. The in-process pool and the
// dist worker both run jobs through here, so a cell computes identically no
// matter which process it lands in.
func RunSweepJob(ctx context.Context, job SweepJob, sc sim.Scenario, opts sim.Options) SweepJobResult {
	jctx, cell := obs.Start(ctx, "sweep.cell",
		obs.String("attack", job.Attack), obs.String("defense", job.Defense),
		obs.Int("replicate", job.Rep), obs.Uint64("seed", sc.Seed))
	obsSweepJobs.Inc()
	rep, err := sim.RunContext(jctx, sc, opts)
	cell.SetAttr(obs.Bool("ok", err == nil))
	cell.End()
	res := SweepJobResult{
		Cell: job.Cell, Rep: job.Rep,
		Attack: job.Attack, Defense: job.Defense, Seed: sc.Seed,
	}
	if err != nil {
		obsSweepJobFailures.Inc()
		res.Err = err.Error()
		return res
	}
	res.Captures = rep.AttackCaptures
	res.Reconstructions = rep.AttackReconstructions
	res.PSNR = rep.AttackMeanPSNR
	res.SSIM = rep.AttackMeanSSIM
	res.Accuracy = rep.FinalAccuracy
	return res
}

// CheckResult validates that a result (from a checkpoint file or a remote
// worker) belongs to this grid: coordinates in range and attack, defense, and
// seed matching the job at those coordinates. It guards the determinism
// contract — a stale checkpoint or a confused worker must never silently
// merge into the wrong cell.
func (g *SweepGrid) CheckResult(r SweepJobResult) error {
	if r.Cell < 0 || r.Cell >= g.NumCells() || r.Rep < 0 || r.Rep >= g.Replicates {
		return fmt.Errorf("experiments: sweep result (cell %d, rep %d) outside the %d×%d grid",
			r.Cell, r.Rep, g.NumCells(), g.Replicates)
	}
	job := g.Job(g.JobID(r.Cell, r.Rep))
	if r.Attack != job.Attack || r.Defense != job.Defense || r.Seed != job.Seed {
		return fmt.Errorf("experiments: sweep result (cell %d, rep %d) claims %s×%s seed %d, grid has %s×%s seed %d",
			r.Cell, r.Rep, r.Attack, r.Defense, r.Seed, job.Attack, job.Defense, job.Seed)
	}
	return nil
}

// Merge folds job results into the final report in deterministic grid order.
// results is indexed by job ID; a nil slot is a job that never ran (an
// interrupted grid) and contributes nothing. Cells aggregate their completed
// replicates (mean±std), record failed ones in FailedReplicates, and are
// omitted entirely when nothing completed. The first failure in grid order
// becomes the returned error, with the partial report alongside — exactly
// RunSweep's historical contract, because RunSweep merges through here.
func (g *SweepGrid) Merge(results []*SweepJobResult) (*SweepReport, error) {
	report := &SweepReport{
		Scenario:   g.Base.Name,
		Seed:       g.Base.Seed,
		Replicates: g.Replicates,
		Seeds:      g.Seeds,
		Attacks:    g.Attacks,
		Defenses:   g.Defenses,
	}
	var firstErr error
	for c := 0; c < g.NumCells(); c++ {
		atk := g.Attacks[c/len(g.Defenses)]
		def := g.Defenses[c%len(g.Defenses)]
		cell := SweepCell{Attack: atk, Defense: def}
		psnrs := make([]float64, 0, g.Replicates)
		ssims := make([]float64, 0, g.Replicates)
		accs := make([]float64, 0, g.Replicates)
		for r := 0; r < g.Replicates; r++ {
			res := results[g.JobID(c, r)]
			if res == nil {
				continue // never ran; an interrupted grid's gap
			}
			if res.Err != "" {
				cell.FailedReplicates++
				if firstErr == nil {
					firstErr = fmt.Errorf("experiments: sweep cell %s×%s (seed %d): %s", atk, def, g.Seeds[r], res.Err)
				}
				continue
			}
			cell.Captures += res.Captures
			cell.Reconstructions += res.Reconstructions
			psnrs = append(psnrs, res.PSNR)
			ssims = append(ssims, res.SSIM)
			accs = append(accs, res.Accuracy)
		}
		if len(psnrs) == 0 {
			continue // nothing completed; the cell renders as absent
		}
		cell.MeanPSNR, cell.StdPSNR = metrics.Mean(psnrs), metrics.Std(psnrs)
		cell.MeanSSIM, cell.StdSSIM = metrics.Mean(ssims), metrics.Std(ssims)
		cell.MeanAccuracy, cell.StdAccuracy = metrics.Mean(accs), metrics.Std(accs)
		report.Cells = append(report.Cells, cell)
	}
	if firstErr != nil {
		return report, firstErr
	}
	return report, nil
}
