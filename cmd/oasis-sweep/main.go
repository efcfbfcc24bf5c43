// Command oasis-sweep evaluates the full attack × defense grid: every
// registered reconstruction attack (rtf, cah, qbi, loki, …) against the
// undefended baseline, the §V defense families, and composed defense
// pipelines, one scenario run per (cell, replicate), reported as mean±std
// PSNR/SSIM per cell.
//
// -attacks and -defenses select grid subsets; a defense column is any
// registry pipeline spec, so layered cells are one flag away. -replicates
// re-runs every cell at derived seeds and -cell-workers bounds how many
// cell runs execute concurrently (distinct from -workers, the per-cell
// client concurrency):
//
//	oasis-sweep                                  # default grid (incl. a composed column)
//	oasis-sweep -attacks rtf,qbi -defenses none,prune:0.3
//	oasis-sweep -defenses "none;oasis:MR|dpsgd:1,0.1;ats:SH|prune:0.5"
//	oasis-sweep -replicates 5 -cell-workers 8    # mean±std over 5 seeds, 8 cells in flight
//	oasis-sweep -scenario base.json -workers 8 -out results
//
// The grid also runs across processes (see internal/dist): -serve turns the
// process into the coordinator, leasing (cell, replicate) jobs to workers
// and re-leasing when one dies; -worker turns it into a thin worker that
// dials, runs leased cells, and streams results back. -checkpoint (serving
// or single-process) appends every completed job to a JSONL file so an
// interrupted sweep resumes without re-running finished work:
//
//	oasis-sweep -serve 127.0.0.1:9444 -checkpoint sweep.ckpt -out results
//	oasis-sweep -worker 127.0.0.1:9444            # × as many processes as you like
//
// The report is deterministic: for a fixed seed the JSON is byte-identical
// for every -workers and -cell-workers value, for every worker-process
// count, and across checkpoint resumes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/dist"
	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/sim"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "oasis-sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		scenarioPath = flag.String("scenario", "", "JSON base scenario for every cell (default: built-in sweep base)")
		attacks      = flag.String("attacks", "", "comma-separated attack kinds (default: all registered: "+strings.Join(attack.Names(), ",")+")")
		defenses     = flag.String("defenses", "", "defense pipeline specs, ';'-separated (',' also works when no spec needs a comma); each is a '|'-chain of "+strings.Join(defense.Names(), "/")+" segments (default: "+strings.Join(experiments.DefaultSweepDefenses(), " ; ")+")")
		neurons      = flag.Int("neurons", 0, "override the base scenario's attacked neurons (0 = keep)")
		seed         = flag.Uint64("seed", 0, "override the base scenario seed (0 = keep)")
		replicates   = flag.Int("replicates", 1, "re-run every cell at this many derived seeds, reporting mean±std")
		workers      = flag.Int("workers", 0, "max clients trained concurrently per cell (0 = NumCPU)")
		cellWorkers  = flag.Int("cell-workers", 0, "max cell×replicate runs in flight (0 = NumCPU, 1 = sequential)")
		quick        = flag.Bool("quick", false, "CI scale: cap rounds and eval per cell")
		outDir       = flag.String("out", "", "directory for sweep.json and sweep.csv")
		quiet        = flag.Bool("q", false, "suppress per-cell progress")
		tracePath    = flag.String("trace", "", "write a JSONL observability trace here (see internal/obs)")
		httpAddr     = flag.String("http", "", "serve the obs debug endpoint (metrics + pprof) on this address, e.g. :6060")
		serveAddr    = flag.String("serve", "", "coordinator mode: serve the grid to -worker processes on this TCP address")
		workerAddr   = flag.String("worker", "", "worker mode: dial this coordinator and run leased cells (grid flags are ignored)")
		ckptPath     = flag.String("checkpoint", "", "append completed jobs to this JSONL file and resume from it (serving or single-process)")
		leaseTimeout = flag.Duration("lease-timeout", 0, "coordinator: drop a worker and re-queue its job when no result arrives within this plus the 30s exchange timeout (0 = 2m)")
	)
	flag.Parse()
	if *serveAddr != "" && *workerAddr != "" {
		return fmt.Errorf("-serve and -worker are mutually exclusive")
	}

	base := experiments.DefaultSweepScenario()
	if *scenarioPath != "" {
		var err error
		base, err = sim.Load(*scenarioPath)
		if err != nil {
			return err
		}
	}
	if *seed != 0 {
		base.Seed = *seed
	}
	if *neurons != 0 {
		base.Attack.Neurons = *neurons
	}

	cfg := experiments.SweepConfig{
		Base:        base,
		Attacks:     splitList(*attacks, ","),
		Defenses:    splitDefenses(*defenses),
		Replicates:  *replicates,
		Workers:     *workers,
		CellWorkers: *cellWorkers,
		Quick:       *quick,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}
	finish, err := obs.EnableCLI("oasis-sweep", *tracePath, *httpAddr)
	if err != nil {
		return err
	}
	if *workerAddr != "" {
		wcfg := dist.WorkerConfig{Addr: *workerAddr, Workers: *workers}
		if !*quiet {
			wcfg.Log = os.Stderr
		}
		err := dist.RunWorker(context.Background(), wcfg)
		if _, traceErr := finish(); err == nil {
			err = traceErr
		}
		return err
	}
	var report *experiments.SweepReport
	if *serveAddr != "" {
		ccfg := dist.CoordinatorConfig{
			Sweep: cfg, Addr: *serveAddr,
			Checkpoint: *ckptPath, LeaseTimeout: *leaseTimeout,
		}
		if !*quiet {
			ccfg.Log = os.Stderr
		}
		report, err = dist.RunCoordinator(context.Background(), ccfg)
	} else {
		cfg.Checkpoint = *ckptPath
		report, err = experiments.RunSweep(cfg)
	}
	if err != nil {
		finish() //nolint:errcheck // the sweep error takes precedence
		dumpPartial(report, err)
		return err
	}
	// The summary lands in the report only on traced runs: untraced sweep
	// JSON stays byte-identical to pre-observability builds.
	sum, traceErr := finish()
	if traceErr != nil {
		return traceErr
	}
	report.Trace = sum
	fmt.Print(report.Table().String())
	fmt.Print(report.CellTable().String())
	return writeArtifacts(report, *outDir)
}

// dumpPartial prints the completed cells a failed sweep still returned, so
// the grid work done before the failure is not lost with the exit.
func dumpPartial(report *experiments.SweepReport, err error) {
	if err == nil || report == nil || len(report.Cells) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "oasis-sweep: %d cell(s) completed before the failure:\n", len(report.Cells))
	fmt.Fprint(os.Stderr, report.CellTable().String())
}

// writeArtifacts saves sweep.json and sweep.csv when an -out directory was
// given.
func writeArtifacts(report *experiments.SweepReport, outDir string) error {
	if outDir == "" {
		return nil
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	raw, err := report.JSON()
	if err != nil {
		return err
	}
	jsonPath := filepath.Join(outDir, "sweep.json")
	if err := os.WriteFile(jsonPath, raw, 0o644); err != nil {
		return err
	}
	csvPath := filepath.Join(outDir, "sweep.csv")
	if err := os.WriteFile(csvPath, []byte(report.Table().CSV()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s and %s\n", jsonPath, csvPath)
	return nil
}

// splitList parses a separated flag into its non-empty items.
func splitList(s, sep string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, sep) {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// splitDefenses parses the -defenses flag: items are ';'-separated when a
// semicolon is present (the unambiguous form — dpsgd's argument itself
// contains a comma); otherwise a string that already parses as one pipeline
// spec is a single item (so a lone -defenses dpsgd:1,0.1 works), and only
// then is ',' treated as the list separator.
func splitDefenses(s string) []string {
	if s == "" {
		return nil
	}
	if strings.Contains(s, ";") {
		return splitList(s, ";")
	}
	if strings.Contains(s, ",") {
		if _, err := defense.NewPipeline(s, defense.Config{}); err == nil {
			return []string{s}
		}
	}
	return splitList(s, ",")
}
