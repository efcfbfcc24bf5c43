package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	rand "math/rand/v2"
	"time"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/metrics"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/tensor"
)

// Options tunes how a scenario executes without changing what it describes.
type Options struct {
	// Quick caps the run for CI: at most quickMaxRounds rounds, small eval
	// sets, and no real-time sleeping. Presets keep their attack bursts
	// inside the first five rounds so Quick still exercises them.
	Quick bool
	// Workers bounds client concurrency per round (fl.ServerConfig.Workers);
	// the Report is bit-identical for every value.
	Workers int
	// Log receives per-round progress lines; nil discards them.
	Log io.Writer
}

// quickMaxRounds is the round cap Options.Quick applies.
const quickMaxRounds = 5

// Scenario-level population draws each get their own keyed sub-stream.
// Sharing one stream would let one knob shift every later draw — toggling
// Defense.Kind on an otherwise identical scenario used to reshuffle which
// clients straggle, exactly the cross-cell confound an attack×defense sweep
// must isolate. With independent salts, each draw depends only on the seed
// and its own spec fields.
const (
	saltPartition = 0x5c3a_12f0 // historical scenario-stream salt, kept for the partition
	saltDefense   = 0xdef3_a551
	saltStraggler = 0x57a6_6139
)

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// Run materializes the scenario's population, drives the concurrent round
// engine over it, and returns the structured report. For a fixed scenario
// the report is bit-identical across Options.Workers values: all randomness
// is drawn from seeded streams keyed by stable identities and all timing is
// virtual.
func Run(sc Scenario, opts Options) (*Report, error) {
	return RunContext(context.Background(), sc, opts)
}

// RunContext is Run under a caller context. The context's cancellation
// reaches the round engine, and any obs span it carries (e.g. a sweep cell)
// parents the run's span tree — the report content is identical either way.
func RunContext(ctx context.Context, sc Scenario, opts Options) (*Report, error) {
	sc, err := sc.Normalize()
	if err != nil {
		return nil, err
	}
	if opts.Quick {
		if sc.Rounds > quickMaxRounds {
			sc.Rounds = quickMaxRounds
		}
		if sc.TestSamples > 64 {
			sc.TestSamples = 64
		}
		sc.RealTime = false
		if err := sc.Validate(); err != nil {
			return nil, fmt.Errorf("sim: quick mode (≤%d rounds): %w", quickMaxRounds, err)
		}
	}
	return run(ctx, sc, opts)
}

func run(ctx context.Context, sc Scenario, opts Options) (*Report, error) {
	ctx, runSpan := obs.Start(ctx, "sim.run",
		obs.String("scenario", sc.Name), obs.Uint64("seed", sc.Seed), obs.Int("clients", sc.Clients))
	defer runSpan.End()

	// Materialization covers everything before the first round: datasets,
	// the lazy partition, membership sets, and the global model. No client
	// state exists yet — cohorts are instantiated per round. The span closes
	// early on success and the deferred End is then a no-op (End is nil-safe).
	_, matSpan := obs.Start(ctx, "sim.materialize", obs.Int("clients", sc.Clients))
	defer func() { matSpan.End() }()
	d := sc.Dataset
	trainDS := data.NewSynthCustom(sc.Name+"-train", d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed)
	testDS := data.NewSynthCustom(sc.Name+"-test", d.Classes, d.Channels, d.Height, d.Width, sc.TestSamples, sc.Seed^0x7e57)

	// Population construction draws from independent keyed streams (see the
	// salt constants above); per-client training streams are keyed by client
	// index at instantiation time.
	partitioner, err := data.NewPartitioner(sc.Partition)
	if err != nil {
		return nil, err
	}
	parts, err := partitioner.PartitionLazy(trainDS, sc.Clients, nn.RandSource(sc.Seed, saltPartition))
	if err != nil {
		return nil, err
	}

	defenseLabel := ""
	if sc.Defense.Kind != "" {
		// A parse-only pipeline resolves the report label (its composite
		// Name shows resolved parameters) and rejects malformed specs before
		// any round runs; per-client instances with their own seeded streams
		// are built when a defended client is first instantiated.
		label, err := defense.NewPipeline(sc.Defense.Kind, defense.Config{})
		if err != nil {
			return nil, err
		}
		defenseLabel = label.Name()
	}
	vp := newVirtualPopulation(sc, trainDS, parts)

	model, flatInput, err := buildModel(sc, trainDS)
	if err != nil {
		return nil, err
	}
	matSpan.End()
	matSpan = nil

	cohort := sc.ClientsPerRound
	if cohort <= 0 || cohort > sc.Clients {
		cohort = sc.Clients
	}
	workers := opts.Workers
	if workers == 0 {
		// Unspecified concurrency resolves through the cost model rather
		// than raw NumCPU, so huge-cohort × huge-model rounds do not pin
		// O(NumCPU × model) buffers on a small box.
		workers = costModelWorkers(cohort, model.NumParams())
	}
	cfg := fl.ServerConfig{
		Rounds:           sc.Rounds,
		ClientsPerRound:  sc.ClientsPerRound,
		LearningRate:     sc.LearningRate,
		Seed:             sc.Seed,
		Workers:          workers,
		TolerateFailures: true,
		AllowEmptyRounds: true,
		// Upload gradients are folded and released inside the round; combined
		// with cohort leasing this keeps live tensors at O(workers × model).
		ReleaseUpdates: true,
	}
	if sc.RealTime && sc.DeadlineMS > 0 {
		// Wall-clock safety net, well above the virtual deadline so it only
		// fires for genuinely wedged clients, never for simulated delays.
		cfg.RoundDeadline = time.Duration(4*sc.DeadlineMS) * time.Millisecond
	}
	server := fl.NewServer(cfg, model, vp)
	server.Sampler, err = fl.NewSamplerByName(sc.Sampling)
	if err != nil {
		return nil, err
	}
	server.Aggregator, err = fl.NewAggregatorByName(sc.Aggregator)
	if err != nil {
		return nil, err
	}

	var sched *scheduledAttack
	if sc.Attack.Kind != "" {
		_, calSpan := obs.Start(ctx, "sim.calibrate_attack", obs.String("attack", sc.Attack.Kind))
		sched, err = buildAttack(sc, trainDS, nn.RandSource(sc.Seed+3, 0xa77ac))
		calSpan.End()
		if err != nil {
			return nil, err
		}
		// Copied onto every client at instantiation; no cohort exists yet.
		vp.attackActive = sc.Attack.Active
		server.Modifier = sched
		server.Observer = sched
	}

	report := &Report{
		Scenario:   sc.Name,
		Seed:       sc.Seed,
		Clients:    sc.Clients,
		Partition:  partitioner.Name(),
		Sampler:    server.Sampler.Name(),
		Aggregator: server.Aggregator.Name(),
		Defense:    defenseLabel,
		Defended:   vp.defended.Count(),
		Attack:     sc.Attack.Kind,
		ShardSizes: shardStats(parts),
	}
	server.AfterRound = func(round int, stats fl.RoundStats) {
		recordHeapPeak()
		// Only the round's cohort has an outcome for it, so collecting just
		// the released cohort is exact and O(cohort), not O(residents).
		rr := collectRound(round, stats, vp.cohort, sc.DeadlineMS)
		rr.AttackActive = sc.Attack.Active(round)
		if round == sc.Rounds-1 || (sc.EvalEvery > 0 && (round+1)%sc.EvalEvery == 0) {
			rr.Evaluated = true
			_, evSpan := obs.Start(ctx, "sim.eval", obs.Int("round", round))
			rr.Accuracy = evalAccuracy(model, testDS, flatInput, 32)
			evSpan.End()
		}
		report.Rounds = append(report.Rounds, rr)
		opts.logf("sim %s round %d/%d: %d/%d ok (%d drop, %d late), loss %.4f%s",
			sc.Name, round+1, sc.Rounds, rr.Completed, rr.Selected, rr.Dropped, rr.Late,
			rr.MeanLoss, attackMark(rr.AttackActive))
	}

	if _, err := server.Run(ctx); err != nil {
		return nil, err
	}
	_, scSpan := obs.Start(ctx, "sim.score")
	scoreAttack(report, sched, vp.residents())
	summarize(report)
	scSpan.End()
	return report, nil
}

func attackMark(active bool) string {
	if active {
		return "  [ATTACK]"
	}
	return ""
}

// buildModel constructs the scenario's global model and reports whether it
// consumes flattened input.
func buildModel(sc Scenario, ds data.Dataset) (*nn.Sequential, bool, error) {
	rng := nn.RandSource(sc.Seed+4, 0x30de1)
	c, h, w := ds.Shape()
	switch sc.Model.Kind {
	case "mlp":
		return nn.NewSequential(
			nn.NewLinear("fc1", c*h*w, sc.Model.Hidden, rng),
			nn.NewReLU("relu1"),
			nn.NewLinear("fc2", sc.Model.Hidden, ds.NumClasses(), rng),
		), true, nil
	case "resnet":
		return nn.NewResNetLite(nn.ResNetLiteConfig{
			InChannels: c, NumClasses: ds.NumClasses(), Width: sc.Model.Hidden,
		}, rng), false, nil
	default:
		return nil, false, fmt.Errorf("sim: unknown model kind %q", sc.Model.Kind)
	}
}

// buildAttack calibrates the scheduled dishonest server through the attack
// registry, so every registered family is a valid scenario kind.
func buildAttack(sc Scenario, ds data.Dataset, rng *rand.Rand) (*scheduledAttack, error) {
	c, h, w := ds.Shape()
	atk, err := attack.New(sc.Attack.Kind, attack.Config{
		Dims:    attack.ImageDims{C: c, H: h, W: w},
		Classes: ds.NumClasses(),
		Neurons: sc.Attack.Neurons,
		Probe:   ds,
		Batch:   sc.Attack.AnticipatedBatch,
		Rng:     rng,
	})
	var srv *attack.DishonestServer
	if err == nil {
		srv, err = attack.NewAttackServer(atk, rng)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: calibrate %s attack: %w", sc.Attack.Kind, err)
	}
	return &scheduledAttack{inner: srv, active: sc.Attack.Active}, nil
}

// scheduledAttack gates a DishonestServer behind the scenario's attack
// schedule: outside active rounds the server is perfectly honest.
type scheduledAttack struct {
	inner  *attack.DishonestServer
	active func(round int) bool
}

var (
	_ fl.ModelModifier  = (*scheduledAttack)(nil)
	_ fl.UpdateObserver = (*scheduledAttack)(nil)
)

// Modify swaps in the malicious model only on scheduled rounds.
func (s *scheduledAttack) Modify(round int, spec fl.ModelSpec) (fl.ModelSpec, error) {
	if !s.active(round) {
		return spec, nil
	}
	return s.inner.Modify(round, spec)
}

// Name labels the scheduled attack.
func (s *scheduledAttack) Name() string { return s.inner.Name() + "-scheduled" }

// Observe inverts updates only on scheduled rounds.
//
//oasis:allow-walltime measures real reconstruction latency for the obs histogram; never feeds results
func (s *scheduledAttack) Observe(round int, u fl.Update) {
	if !s.active(round) {
		return
	}
	if !obs.Enabled() {
		s.inner.Observe(round, u)
		return
	}
	obsAttackObserve.Inc()
	start := time.Now()
	s.inner.Observe(round, u)
	obsReconstructMS.Observe(float64(time.Since(start).Microseconds()) / 1000)
}

// collectRound assembles one RoundReport from the server stats and the
// round cohort's outcome records (iterated in client-index order, so the
// result is scheduling-independent).
func collectRound(round int, stats fl.RoundStats, cohort []*simClient, deadlineMS float64) RoundReport {
	rr := RoundReport{
		Round:    round,
		MeanLoss: stats.MeanLoss,
		GradNorm: stats.GradNorm,
	}
	for _, c := range cohort {
		o, ok := c.outcomes[round]
		if !ok {
			continue // canceled before HandleRound ran (see below)
		}
		rr.Selected++
		switch {
		case o.dropped:
			rr.Dropped++
		case o.late:
			rr.Late++
		case o.completed:
			rr.Completed++
		default:
			rr.Failed++
		}
		rr.VirtualMS = math.Max(rr.VirtualMS, o.waitedMS(deadlineMS))
	}
	// In RealTime mode the wall-clock safety net can cancel selected clients
	// before their HandleRound ever runs, leaving no outcome record; the
	// server still counted them in RoundStats.Failed. Reconcile so they stay
	// visible instead of silently inflating participation. (Virtual-clock
	// runs never hit this: every selected client records an outcome.)
	if serverSelected := len(stats.Clients) + len(stats.Failed); serverSelected > rr.Selected {
		missing := serverSelected - rr.Selected
		rr.Selected += missing
		rr.Failed += missing
		if deadlineMS > 0 {
			rr.VirtualMS = math.Max(rr.VirtualMS, deadlineMS)
		}
	}
	return rr
}

// scoreAttack pairs the dishonest server's captures with the recorded
// pre-defense batches and fills the per-round and total PSNR fields.
func scoreAttack(report *Report, sched *scheduledAttack, population []*simClient) {
	if sched == nil {
		return
	}
	byID := make(map[string]*simClient, len(population))
	for _, c := range population {
		byID[c.ID()] = c
	}
	perRound := make(map[int][]float64)
	reconPerRound := make(map[int]int)
	var all, ssims []float64
	caps := sched.inner.Captures()
	for _, cap := range caps {
		reconPerRound[cap.Round] += len(cap.Reconstructions)
		report.AttackReconstructions += len(cap.Reconstructions)
		c := byID[cap.ClientID]
		if c == nil || len(cap.Reconstructions) == 0 {
			continue
		}
		o := c.outcomes[cap.Round]
		if o == nil || len(o.originals) == 0 {
			continue
		}
		ev := attack.Evaluate(cap.Reconstructions, o.originals)
		perRound[cap.Round] = append(perRound[cap.Round], ev.PSNRs...)
		all = append(all, ev.PSNRs...)
		for _, r := range cap.Reconstructions {
			ssims = append(ssims, imaging.BestSSIM(r, o.originals))
		}
	}
	report.AttackCaptures = len(caps)
	report.AttackMeanPSNR = metrics.Mean(all)
	report.AttackMeanSSIM = metrics.Mean(ssims)
	for i := range report.Rounds {
		r := report.Rounds[i].Round
		report.Rounds[i].Reconstructions = reconPerRound[r]
		report.Rounds[i].MeanPSNR = metrics.Mean(perRound[r])
	}
}

// summarize fills the report's whole-run aggregates from its rounds.
func summarize(report *Report) {
	partSum := 0.0
	for _, rr := range report.Rounds {
		if rr.Selected > 0 {
			partSum += float64(rr.Completed) / float64(rr.Selected)
		}
		report.TotalDropped += rr.Dropped
		report.TotalLate += rr.Late
		report.TotalFailed += rr.Failed
		report.TotalVirtualMS += rr.VirtualMS
	}
	if n := len(report.Rounds); n > 0 {
		report.MeanParticipation = partSum / float64(n)
		last := report.Rounds[n-1]
		report.FinalLoss = last.MeanLoss
		report.FinalAccuracy = last.Accuracy
	}
}

// shardStats summarizes the partition's shard sizes without materializing
// any shard.
func shardStats(parts *data.LazyPartition) ShardStats {
	if parts.Shards() == 0 {
		return ShardStats{}
	}
	mn, mx, mean := parts.Stats()
	return ShardStats{Min: mn, Max: mx, Mean: mean}
}

// evalAccuracy measures held-out classification accuracy in inference mode.
func evalAccuracy(model *nn.Sequential, ds data.Dataset, flat bool, batchSize int) float64 {
	correct, total := 0.0, 0
	for off := 0; off < ds.Len(); off += batchSize {
		end := min(off+batchSize, ds.Len())
		idx := make([]int, 0, end-off)
		for i := off; i < end; i++ {
			idx = append(idx, i)
		}
		batch, err := data.TakeBatch(ds, idx)
		if err != nil {
			return 0
		}
		var logits = model.Forward(batchInput(batch, flat), false)
		correct += nn.Accuracy(logits, batch.Labels) * float64(batch.Size())
		total += batch.Size()
	}
	if total == 0 {
		return 0
	}
	return correct / float64(total)
}

func batchInput(b *data.Batch, flat bool) *tensor.Tensor {
	if flat {
		return b.Flatten()
	}
	return b.Tensor4D()
}
