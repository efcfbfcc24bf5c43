// Command oasis-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	oasis-bench -list
//	oasis-bench -run fig5 -out results
//	oasis-bench -run all -quick
//	oasis-bench -run fig2,visual,fig14 -out results
//
// Every experiment prints the same rows/series the paper reports; -out
// additionally writes CSV tables and PNG figures. The fig2,visual,fig14 run
// writes the visual-reconstruction montages (figures 2, 7–12 and 14): raw
// input images beside the dishonest server's reconstructions.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/oasisfl/oasis/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "oasis-bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		list    = flag.Bool("list", false, "list available experiments")
		runID   = flag.String("run", "all", "experiment id to run, or 'all'")
		quick   = flag.Bool("quick", false, "reduced grid sizes (CI scale)")
		seed    = flag.Uint64("seed", 42, "experiment seed")
		outDir  = flag.String("out", "", "directory for CSV/PNG artifacts (empty = stdout only)")
		verbose = flag.Bool("v", false, "log progress while running")
		workers = flag.Int("workers", 0, "max concurrent clients in FL-round experiments (0 = NumCPU)")
	)
	flag.Parse()

	if *list {
		for _, s := range experiments.Registry() {
			fmt.Printf("%-8s %s\n", s.ID, s.Title)
		}
		return nil
	}

	cfg := experiments.Config{Quick: *quick, Seed: *seed, OutDir: *outDir, Workers: *workers}
	if *verbose {
		cfg.Log = os.Stderr
	}

	var specs []experiments.Spec
	if *runID == "all" {
		specs = experiments.Registry()
	} else {
		for _, id := range strings.Split(*runID, ",") {
			s, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				return fmt.Errorf("unknown experiment %q (use -list)", id)
			}
			specs = append(specs, s)
		}
	}

	for _, s := range specs {
		start := time.Now() //oasis:allow-walltime bench prints human-facing elapsed time
		fmt.Printf("### %s — %s\n", s.ID, s.Title)
		res, err := s.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", s.ID, err)
		}
		fmt.Print(res.String())
		for _, a := range res.Artifacts {
			fmt.Printf("artifact: %s\n", a)
		}
		fmt.Printf("(%s in %s)\n\n", s.ID, time.Since(start).Round(time.Millisecond)) //oasis:allow-walltime bench prints human-facing elapsed time
	}
	return nil
}
