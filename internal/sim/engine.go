package sim

import (
	"context"
	"fmt"
	"io"
	"math"
	rand "math/rand/v2"
	"sync"
	"time"
	"weak"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/defense"
	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/obs"
)

// Options tunes how a scenario executes without changing what it describes.
type Options struct {
	// Quick caps the run for CI: at most quickMaxRounds rounds and small
	// eval sets. Presets keep their attack bursts inside the first five
	// rounds so Quick still exercises them.
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

	// The attack's calibration memo entry is taken before anything else is
	// built, so a GC while this run materializes cannot drop the entry an
	// earlier run of the same (attack, replicate) left behind.
	var cal *calibration
	if sc.Attack.Kind != "" {
		cal = calibrationOf(sc)
	}

	// Materialization covers everything before the first round: datasets,
	// the lazy partition, membership sets, and the global model. No client
	// state exists yet — cohorts are instantiated per round. The span closes
	// early on success and the deferred End is then a no-op (End is nil-safe).
	_, matSpan := obs.Start(ctx, "sim.materialize", obs.Int("clients", sc.Clients))
	defer func() { matSpan.End() }()
	trainDS, testDS := scenarioDatasets(sc)

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

	model, err := buildModel(sc, trainDS)
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
		sched, err = buildAttack(sc, trainDS, cal)
		calSpan.End()
		if err != nil {
			return nil, err
		}
		// Read by every leased client; set before the first round runs.
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
		// the released cohort is exact and O(cohort), not O(population).
		rr := collectRound(round, stats, vp.cohort, sc.DeadlineMS)
		rr.AttackActive = sc.Attack.Active(round)
		if sched != nil && rr.AttackActive {
			_, scSpan := obs.Start(ctx, "sim.score", obs.Int("round", round))
			sched.score(&rr, vp.cohort)
			scSpan.End()
		}
		if round == sc.Rounds-1 || (sc.EvalEvery > 0 && (round+1)%sc.EvalEvery == 0) {
			rr.Evaluated = true
			_, evSpan := obs.Start(ctx, "sim.eval", obs.Int("round", round))
			// Normalize gives every scenario a non-empty test set, so the
			// evaluator cannot fail here.
			rr.Accuracy, _ = fl.EvaluateAccuracy(model, testDS, 32)
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
	if sched != nil {
		sched.totals(report)
	}
	summarize(report)
	return report, nil
}

func attackMark(active bool) string {
	if active {
		return "  [ATTACK]"
	}
	return ""
}

// buildModel constructs the scenario's global model.
func buildModel(sc Scenario, ds data.Dataset) (*nn.Sequential, error) {
	rng := nn.RandSource(sc.Seed+4, 0x30de1)
	c, h, w := ds.Shape()
	switch sc.Model.Kind {
	case "mlp":
		return nn.NewSequential(
			nn.NewLinear("fc1", c*h*w, sc.Model.Hidden, rng),
			nn.NewReLU("relu1"),
			nn.NewLinear("fc2", sc.Model.Hidden, ds.NumClasses(), rng),
		), nil
	case "resnet":
		return nn.NewResNetLite(nn.ResNetLiteConfig{
			InChannels: c, NumClasses: ds.NumClasses(), Width: sc.Model.Hidden,
		}, rng), nil
	default:
		return nil, fmt.Errorf("sim: unknown model kind %q", sc.Model.Kind)
	}
}

// calibrationOf returns the calibration sc's attack runs on. A built-in
// family's is shared with every concurrent or recent run with the same
// calKey (see calibrations), so the defense columns of a sweep calibrate
// each (attack, replicate) once; any other family gets a fresh one.
func calibrationOf(sc Scenario) *calibration {
	if builtinAttacks[sc.Attack.Kind] {
		return calibrations.get(calKeyOf(sc), func() *calibration { return &calibration{} })
	}
	return &calibration{}
}

// buildAttack calibrates the scheduled dishonest server through the attack
// registry, so every registered family is a valid scenario kind. cal is
// the run's calibrationOf entry: the first run to reach it calibrates, and
// the others reuse the result.
func buildAttack(sc Scenario, ds data.Dataset, cal *calibration) (*scheduledAttack, error) {
	cal.once.Do(func() {
		pcg := rand.NewPCG(sc.Seed+3, 0xa77ac)
		c, h, w := ds.Shape()
		cal.atk, cal.err = attack.New(sc.Attack.Kind, attack.Config{
			Dims:    attack.ImageDims{C: c, H: h, W: w},
			Classes: ds.NumClasses(),
			Neurons: sc.Attack.Neurons,
			Probe:   ds,
			Batch:   sc.Attack.AnticipatedBatch,
			Rng:     rand.New(pcg),
		})
		cal.pcg = *pcg
	})
	if cal.err != nil {
		return nil, fmt.Errorf("sim: calibrate %s attack: %w", sc.Attack.Kind, cal.err)
	}
	// The victim's other layers draw from the calibration stream where
	// calibration left it, so a reused calibration dispatches the same spec.
	pcg := cal.pcg
	srv, err := attack.NewAttackServer(cal.atk, rand.New(&pcg))
	if err != nil {
		return nil, fmt.Errorf("sim: calibrate %s attack: %w", sc.Attack.Kind, err)
	}
	return &scheduledAttack{inner: srv, active: sc.Attack.Active, cal: cal}, nil
}

// builtinAttacks are the attack families whose calibrations are shared.
// attack.Register cannot shadow them, and their constructors are pure and
// return an Imprint that is immutable once calibrated. A constructor added
// through attack.Register may not be pure, so its kind calibrates on every
// run.
var builtinAttacks = map[string]bool{"rtf": true, "cah": true, "qbi": true, "loki": true}

// calKey is everything attack calibration reads from a normalized
// scenario: the family and its layer shape, the probe dataset (the train
// Synth, seeded with the scenario seed) and the seed of the calibration
// stream.
type calKey struct {
	kind           string
	neurons, batch int
	dataset        DatasetSpec
	seed           uint64
}

func calKeyOf(sc Scenario) calKey {
	return calKey{
		kind: sc.Attack.Kind, neurons: sc.Attack.Neurons, batch: sc.Attack.AnticipatedBatch,
		dataset: sc.Dataset, seed: sc.Seed,
	}
}

// calibration is a calibrated attack (or the error calibrating it) and the
// calibration stream's state right after it. once runs the calibration; a
// run that finds the entry while another run calibrates waits for it.
type calibration struct {
	once sync.Once
	atk  attack.Attack
	err  error
	pcg  rand.PCG
}

// calibrations memoizes built-in calibrations by key. Each run's
// scheduledAttack holds its calibration strongly, so an entry lives while a
// run uses it and until the next GC after, and a finished run pins nothing.
var calibrations weakMemo[calKey, calibration]

// synthMemoBytes caps the datasets the image memo keeps: one whose every
// image, rendered, takes more pixel bytes than this is built uncached.
const synthMemoBytes = 1 << 20

// synthKey is every field a scenario's Synth is built from; NewSynthCustom
// fixes the rest.
type synthKey struct {
	name                string
	classes, c, h, w, n int
	seed                uint64
}

// synths memoizes the scenario datasets small enough to cache their images
// (see scenarioDatasets). A run holds its datasets strongly for its
// lifetime, so concurrent and back-to-back runs of one seed share rendered
// images, and a finished run pins none.
var synths weakMemo[synthKey, data.Synth]

// scenarioDatasets returns the scenario's train and test sets. A set whose
// rendered images fit synthMemoBytes comes from the synths memo as a
// Cached Synth, so the cells of a sweep replicate render each image once;
// a larger one is an uncached Synth that renders every sample it is asked
// for.
func scenarioDatasets(sc Scenario) (train, test *data.Synth) {
	d := sc.Dataset
	train = memoSynth(synthKey{sc.Name + "-train", d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed})
	test = memoSynth(synthKey{sc.Name + "-test", d.Classes, d.Channels, d.Height, d.Width, sc.TestSamples, sc.Seed ^ 0x7e57})
	return train, test
}

// memoSynth is the Synth under k, from the synths memo when it is small
// enough.
func memoSynth(k synthKey) *data.Synth {
	build := func() *data.Synth { return data.NewSynthCustom(k.name, k.classes, k.c, k.h, k.w, k.n, k.seed) }
	if k.n*k.c*k.h*k.w*8 > synthMemoBytes {
		return build()
	}
	return synths.get(k, func() *data.Synth { return build().Cached() })
}

// weakMemo maps keys to values it holds weakly: the callers of get hold a
// value strongly for as long as they use it, and an entry outlives its last
// holder only until the next GC. It is safe for concurrent use.
type weakMemo[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]weak.Pointer[V]
}

// get returns the live value under key, or stores and returns newV(), first
// dropping the entries whose values have been collected.
func (w *weakMemo[K, V]) get(key K, newV func() *V) *V {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v := w.m[key].Value(); v != nil {
		return v
	}
	for k, p := range w.m {
		if p.Value() == nil {
			delete(w.m, k)
		}
	}
	if w.m == nil {
		w.m = make(map[K]weak.Pointer[V])
	}
	v := newV()
	w.m[key] = weak.Make(v)
	return v
}

// scheduledAttack gates a DishonestServer behind the scenario's attack
// schedule: outside active rounds the server is perfectly honest. It keeps
// only the current round's captures; score pairs them with the cohort's
// recorded batches at the end of the round and drops them.
type scheduledAttack struct {
	inner  *attack.DishonestServer
	active func(round int) bool
	cal    *calibration // keeps the memo entry alive for the run

	// captures are the current round's, in selection order.
	captures []attack.Capture
	// Run totals: every capture, every reconstruction, and the sums and
	// count of the scored reconstructions' PSNR and SSIM, added in round
	// then selection order.
	nCaptures, nRecons, nScored int
	psnrSum, ssimSum            float64
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

// Observe inverts updates only on scheduled rounds and keeps the capture
// until the round is scored.
//
//oasis:allow-walltime measures real reconstruction latency for the obs histogram; never feeds results
func (s *scheduledAttack) Observe(round int, u fl.Update) {
	if !s.active(round) {
		return
	}
	var start time.Time
	if obs.Enabled() {
		obsAttackObserve.Inc()
		start = time.Now()
	}
	recons, ok := s.inner.Invert(u)
	if !start.IsZero() {
		obsReconstructMS.Observe(float64(time.Since(start).Microseconds()) / 1000)
	}
	if ok {
		s.captures = append(s.captures, attack.Capture{Round: round, ClientID: u.ClientID, Reconstructions: recons})
	}
}

// score matches each of the round's reconstructions to its best-PSNR
// original in the raw batch its client recorded, fills rr's reconstruction
// count and mean PSNR, adds to the run totals, and drops the round's
// captures and recorded batches.
func (s *scheduledAttack) score(rr *RoundReport, cohort []*simClient) {
	originals := make(map[string][]*imaging.Image, len(s.captures))
	for _, c := range cohort {
		if b := c.record.batch; b != nil {
			originals[c.ID()] = b.Images
			c.record.batch = nil
		}
	}
	psnrSum, n := 0.0, 0
	for _, cap := range s.captures {
		rr.Reconstructions += len(cap.Reconstructions)
		ims := originals[cap.ClientID]
		if len(ims) == 0 {
			continue
		}
		for _, r := range cap.Reconstructions {
			idx, p := imaging.BestMatch(r, ims)
			ssim := 0.0
			if idx >= 0 {
				ssim = imaging.SSIM(r, ims[idx])
			}
			psnrSum += p
			n++
			s.psnrSum += p
			s.ssimSum += ssim
		}
	}
	if n > 0 {
		rr.MeanPSNR = psnrSum / float64(n)
	}
	s.nCaptures += len(s.captures)
	s.nRecons += rr.Reconstructions
	s.nScored += n
	clear(s.captures)
	s.captures = s.captures[:0]
}

// totals fills the report's whole-run attack fields.
func (s *scheduledAttack) totals(report *Report) {
	report.AttackCaptures = s.nCaptures
	report.AttackReconstructions = s.nRecons
	if s.nScored > 0 {
		report.AttackMeanPSNR = s.psnrSum / float64(s.nScored)
		report.AttackMeanSSIM = s.ssimSum / float64(s.nScored)
	}
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
		// Each simClient lives for one lease: its outcome is nil or this
		// round's.
		o := c.outcome
		if o == nil {
			continue
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
	return rr
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
