package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"github.com/oasisfl/oasis/internal/dist"
	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/sim"
)

// size scales the workloads. fullSize is what the benchmark measures; the
// tests use a tiny size that still drives every workload end to end.
type size struct {
	crossDeviceRounds int
	paperRounds       int
	replicates        int
	// minSteps is how many steps between progress lines a measurement needs
	// before it may stop, so that its reported percentiles hold enough tail
	// samples.
	minSteps int
}

var fullSize = size{crossDeviceRounds: 40, paperRounds: 24, replicates: 40, minSteps: samplesFor(90)}

// outcome is what one run of a workload produced.
type outcome struct {
	// report is the run's report JSON; two runs at one seed must agree on it
	// byte for byte, whatever their parallelism or tracing.
	report []byte
	// ops counts completed operations (aggregated client updates or merged
	// sweep jobs); attempted and failed feed the error accounting.
	ops, attempted, failed int
	// problems lists the output checks the report failed.
	problems []string
	// wire and checkpointBytes are set by proxied dist-sweep runs only.
	wire            *wireStats
	checkpointBytes int64
}

// A workload is one seeded scenario family driven through a public entry
// point of the program.
type workload struct {
	name string
	// prefix marks the program's progress lines: one per completed round
	// on the sim workloads, one per completed job on the sweeps.
	prefix string
	// roundWorkers is the client concurrency of each FL round.
	roundWorkers int
	// reference runs run 0's inputs once, untimed, with one worker where
	// the timed runs use two; timed run 0 must reproduce its report byte for
	// byte. With one worker the program is idle at every progress line, so
	// the heapProbe passed as log reads the exact live heap there.
	reference func(ctx context.Context, seed uint64, sz size, log io.Writer) ([]byte, error)
	// run executes one timed run, writing progress lines to log. proxied
	// routes dist-sweep traffic through a counting proxy.
	run func(ctx context.Context, seed uint64, sz size, log io.Writer, proxied bool) (outcome, error)
}

var workloads = []*workload{
	simWorkload("cross-device", crossDeviceScenario),
	simWorkload("paper-attack", paperAttackScenario),
	{
		name: "sweep-grid", prefix: "sweep ", roundWorkers: 1,
		reference: func(_ context.Context, seed uint64, sz size, log io.Writer) ([]byte, error) {
			cfg := sweepConfig(seed, sz)
			cfg.CellWorkers, cfg.Log = 1, log
			rep, err := experiments.RunSweep(cfg)
			if err != nil {
				return nil, err
			}
			return rep.JSON()
		},
		run: func(_ context.Context, seed uint64, sz size, log io.Writer, _ bool) (outcome, error) {
			cfg := sweepConfig(seed, sz)
			cfg.Log = log
			rep, err := experiments.RunSweep(cfg)
			if err != nil {
				return outcome{}, err
			}
			return sweepOutcome(rep)
		},
	},
	{
		name: "dist-sweep", prefix: "dist: job ", roundWorkers: 1,
		reference: distReference,
		run: func(ctx context.Context, seed uint64, sz size, log io.Writer, proxied bool) (outcome, error) {
			return runDist(ctx, sweepConfig(seed, sz), 2, log, proxied)
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// simWorkload runs a scenario through sim.RunContext with two client
// workers; its reference runs the same scenario with one.
func simWorkload(name string, scenario func(seed uint64, sz size) sim.Scenario) *workload {
	return &workload{
		name: name, prefix: "sim ", roundWorkers: 2,
		reference: func(ctx context.Context, seed uint64, sz size, log io.Writer) ([]byte, error) {
			rep, err := sim.RunContext(ctx, scenario(seed, sz), sim.Options{Workers: 1, Log: log})
			if err != nil {
				return nil, err
			}
			return rep.JSON()
		},
		run: func(ctx context.Context, seed uint64, sz size, log io.Writer, _ bool) (outcome, error) {
			rep, err := sim.RunContext(ctx, scenario(seed, sz), sim.Options{Workers: 2, Log: log})
			if err != nil {
				return outcome{}, err
			}
			raw, err := rep.JSON()
			out := outcome{report: raw, problems: checkRounds(rep)}
			out.ops, out.attempted, out.failed = simOps(rep)
			return out, err
		},
	}
}

// crossDeviceScenario is the cross-device-1M preset run for more rounds:
// nearly every sampled client is new, so per-client engine bookkeeping
// outweighs the tiny 8×8 MLP's kernels.
func crossDeviceScenario(seed uint64, sz size) sim.Scenario {
	sc, _ := sim.Preset("cross-device-1M")
	sc.Seed = seed
	sc.Rounds = sz.crossDeviceRounds
	return sc
}

// paperAttackScenario has the paper's shape: CIFAR-sized images, an RTF
// attack with 256 neurons striking every round, and OASIS on half the
// clients. The malicious layer's matmuls, reconstruction and PSNR/SSIM
// scoring dominate.
func paperAttackScenario(seed uint64, sz size) sim.Scenario {
	return sim.Scenario{
		Name:        "paper-attack",
		Description: "64 clients, 8 per round, 3x32x32 images; RTF strikes every round; OASIS MR on half the clients.",
		Seed:        seed,
		Clients:     64, Rounds: sz.paperRounds, ClientsPerRound: 8, BatchSize: 8,
		Dataset:     sim.DatasetSpec{Classes: 10, Channels: 3, Height: 32, Width: 32, Samples: 1024},
		Defense:     sim.DefenseSpec{Kind: "oasis:MR", Fraction: 0.5},
		Attack:      sim.AttackSpec{Kind: "rtf", Neurons: 256, FirstRound: 0, LastRound: sz.paperRounds - 1},
		TestSamples: 64,
	}
}

// simOps counts client updates. A completed update was aggregated; a failed
// one was attempted and lost. Dropped and late clients are outcomes the
// scenario draws, not failures of the system.
func simOps(rep *sim.Report) (ops, attempted, failed int) {
	for _, r := range rep.Rounds {
		ops += r.Completed
		failed += r.Failed
	}
	return ops, ops + failed, failed
}

// checkRounds verifies that every selected client is accounted for and that
// every strike round produced reconstructions.
func checkRounds(rep *sim.Report) []string {
	var problems []string
	for _, r := range rep.Rounds {
		if r.Selected != r.Completed+r.Dropped+r.Late+r.Failed {
			problems = append(problems, fmt.Sprintf("%s seed %d round %d: selected %d != completed %d + dropped %d + late %d + failed %d",
				rep.Scenario, rep.Seed, r.Round, r.Selected, r.Completed, r.Dropped, r.Late, r.Failed))
		}
		if r.AttackActive && r.Reconstructions == 0 {
			problems = append(problems, fmt.Sprintf("%s seed %d round %d: strike round yielded no reconstructions",
				rep.Scenario, rep.Seed, r.Round))
		}
	}
	return problems
}

// sweepConfig is the default attack×defense grid over the default sweep
// base: 4 attacks × 5 defenses × sz.replicates seeds, two jobs in flight,
// one client worker per job.
func sweepConfig(seed uint64, sz size) experiments.SweepConfig {
	base := experiments.DefaultSweepScenario()
	base.Seed = seed
	return experiments.SweepConfig{Base: base, Replicates: sz.replicates, CellWorkers: 2, Workers: 1}
}

// distReference serves the grid to one worker, after checking that the
// distributed report equals the in-process RunSweep's byte for byte.
func distReference(ctx context.Context, seed uint64, sz size, log io.Writer) ([]byte, error) {
	cfg := sweepConfig(seed, sz)
	local, err := experiments.RunSweep(cfg)
	if err != nil {
		return nil, err
	}
	want, err := local.JSON()
	if err != nil {
		return nil, err
	}
	out, err := runDist(ctx, cfg, 1, log, false)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(out.report, want) {
		return nil, errors.New("check failed: the distributed report differs from the in-process RunSweep's")
	}
	return out.report, nil
}

// sweepOutcome counts merged jobs and checks every cell: none failed and
// each one's strike rounds yielded reconstructions.
func sweepOutcome(rep *experiments.SweepReport) (outcome, error) {
	raw, err := rep.JSON()
	out := outcome{report: raw}
	cells := len(rep.Attacks) * len(rep.Defenses)
	out.ops, out.attempted, out.failed = sweepOps(rep, cells)
	if len(rep.Cells) != cells {
		out.problems = append(out.problems, fmt.Sprintf("sweep seed %d: %d cells, want %d", rep.Seed, len(rep.Cells), cells))
	}
	for _, c := range rep.Cells {
		if c.FailedReplicates > 0 || c.Reconstructions == 0 {
			out.problems = append(out.problems, fmt.Sprintf("sweep seed %d cell %s × %s: %d failed replicates, %d reconstructions",
				rep.Seed, c.Attack, c.Defense, c.FailedReplicates, c.Reconstructions))
		}
	}
	return out, err
}

// sweepOps counts jobs. Each of the grid's cells runs rep.Replicates jobs; a
// job that failed is recorded in its cell, and a cell whose every job failed
// is left out of the report.
func sweepOps(rep *experiments.SweepReport, cells int) (ops, attempted, failed int) {
	attempted = cells * rep.Replicates
	for _, c := range rep.Cells {
		ops += rep.Replicates - c.FailedReplicates
	}
	return ops, attempted, attempted - ops
}

// runDist serves the grid from a coordinator with a checkpoint file to
// in-process workers over loopback TCP.
func runDist(ctx context.Context, cfg experiments.SweepConfig, workers int, log io.Writer, proxied bool) (outcome, error) {
	dir, err := os.MkdirTemp("", "oasis-benchmark-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	ckpt := filepath.Join(dir, "sweep.jsonl")

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	coord, err := dist.StartCoordinator(ctx, dist.CoordinatorConfig{
		Sweep: cfg, Addr: "127.0.0.1:0", Checkpoint: ckpt, Log: log,
	})
	if err != nil {
		return outcome{}, err
	}
	addr := coord.Addr()
	var proxy *wireProxy
	if proxied {
		if proxy, err = startProxy(addr); err != nil {
			cancel()
			_, _ = coord.Wait(ctx) // tearing down after the proxy error
			return outcome{}, err
		}
		addr = proxy.Addr()
	}
	workerErrs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range workerErrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[i] = dist.RunWorker(ctx, dist.WorkerConfig{Addr: addr, ID: fmt.Sprintf("bench-%d", i)})
		}()
	}
	rep, err := coord.Wait(ctx)
	if err != nil {
		cancel() // release workers still waiting for a lease
	}
	wg.Wait()
	var wire wireStats
	if proxy != nil {
		wire = proxy.Close()
	}
	if err != nil {
		return outcome{}, err
	}
	if err := errors.Join(workerErrs...); err != nil {
		return outcome{}, err
	}
	out, err := sweepOutcome(rep)
	if err != nil {
		return outcome{}, err
	}
	if proxy != nil {
		fi, err := os.Stat(ckpt)
		if err != nil {
			return outcome{}, err
		}
		out.wire, out.checkpointBytes = &wire, fi.Size()
	}
	return out, nil
}
