// Package sim is the declarative scenario engine: it turns a Scenario spec
// (constructed in Go or decoded from JSON) into a federated population —
// thousands to millions of clients over non-IID shards, with dropout,
// stragglers, partial defense coverage and a scheduled dishonest server —
// drives the concurrent fl round engine over it, and emits a structured,
// deterministic Report. Populations are virtual: per-client state is
// materialized only for the clients a round actually touches, so the
// population size bounds addressing, not memory.
//
// # Spec schema
//
// A scenario is one JSON object; omitted fields take the defaults noted:
//
//	{
//	  "name": "my-scenario",
//	  "seed": 42,
//	  "clients": 1000,                 // population size
//	  "rounds": 8,
//	  "clients_per_round": 50,         // 0 = all clients every round
//	  "batch_size": 4,                 // default 8
//	  "local_steps": 1,                // >1 = FedAvg local training
//	  "learning_rate": 0.05,
//	  "dataset": {                     // synthetic dataset geometry
//	    "classes": 10, "channels": 1, "height": 8, "width": 8, "samples": 4000
//	  },
//	  "partition": "dirichlet:0.1",    // iid | dirichlet[:alpha] | quantity[:sigma]
//	  "sampling": "size",              // uniform | size (weighted by shard size)
//	  "aggregator": "mean",            // mean | median | trimmed[:f] | normclip[:m]
//	  "deadline_ms": 120,              // virtual round deadline; 0 = wait forever
//	  "dropout": 0.1,                  // per-client per-round dropout probability
//	  "straggler": {                   // slow-tail model
//	    "fraction": 0.2,               // share of clients that straggle
//	    "mean_delay_ms": 60,           // exponential mean extra delay
//	    "base_delay_ms": 5             // floor everyone pays
//	  },
//	  "defense": {
//	    "kind": "oasis:MR",            // any defense.Names() kind[:arg], or a
//	                                   //   '|'-chained pipeline, e.g.
//	                                   //   "oasis:MR|dpsgd:1,0.1"
//	    "fraction": 0.3
//	  },
//	  "attack": {
//	    "kind": "rtf",                 // any attack.Names() kind (rtf | cah |
//	                                   //   qbi | loki) or "" (honest server)
//	    "neurons": 48,
//	    "first_round": 1, "last_round": 2,   // burst window (inclusive), or
//	    "rounds": [1, 3]                     // explicit strike rounds
//	  },
//	  "model": {"kind": "mlp", "hidden": 32},    // mlp | resnet
//	  "eval_every": 4,                 // accuracy eval cadence; 0 = final only
//	  "test_samples": 128
//	}
//
// Unknown fields are rejected, so typos fail instead of silently running a
// different experiment. That includes "real_time", which older specs may
// still carry: straggler delays only ever advance the virtual clock.
//
// # Determinism
//
// Every stochastic choice — partitioning, defense and straggler assignment,
// per-round dropout and delays, attack calibration, client sampling, local
// batches — is drawn from PCG streams keyed by the scenario seed and stable
// identities (client index, round number), never by scheduling order or
// wall clock, and timing in the Report is a virtual clock computed from the
// drawn delays. A scenario therefore produces a bit-identical Report for
// every Options.Workers value; only real elapsed time changes.
//
// Scenario-level population draws are additionally isolated from one
// another on independent keyed sub-streams: the straggler set is a function
// of (seed, straggler spec) alone and the defended set of (seed, defense
// spec) alone, so toggling one knob — say, switching Defense.Kind between
// sweep cells — can never reshuffle an unrelated draw.
//
// # Calibration reuse
//
// A built-in attack (rtf, cah, qbi, loki) calibrates its planted layer from
// the scenario's own train data and a stream keyed by the seed, so its
// result depends only on the attack kind, neurons, anticipated batch,
// dataset geometry and seed. Runs that agree on all five — the defense
// columns of one sweep (attack, replicate) — reuse one calibration: the
// memo keeps the calibrated attack and the calibration stream's state after
// it, and restores that state before building the victim, so the dispatched
// model and the report are bit-identical to a cold calibration. The memo is
// single-flight: a run that finds an entry another run is still
// calibrating waits for that calibration instead of starting its own, so
// two cell workers that pick up the first two defense columns of an
// (attack, replicate) together calibrate once. Each run still builds its
// own dishonest server, so captures stay per run. The memo holds entries
// weakly; a run takes its own first, before it materializes anything, and
// holds it strongly, so an entry outlives its last run only until the next
// GC, and a finished run pins no layer. A kind added
// through attack.Register calibrates on every run.
//
// # Image reuse
//
// A scenario's train and test sets are Synths keyed by the scenario name,
// the dataset geometry, the sample count and the seed, so every cell of a
// sweep replicate reads the same images. A set whose rendered pixels fit a
// fixed 1 MiB (the sweep base's 240 + 64 images of 1×8×8 do) comes from a
// second memo as a data.Synth.Cached: each image is rendered once, on the
// first Sample of its index, and every later Sample, in any run, returns
// that same image, which is why Sample's callers must clone before they
// write. The memo holds sets weakly, like the calibration memo: a run holds
// its own two for its lifetime, so concurrent and back-to-back runs of one
// seed share them, and an idle engine pins no image. A larger set, such as
// a 3×32×32 paper-scale corpus or a million-client train set, is an
// uncached Synth that renders every sample it is asked for, as before.
//
// # Virtual clients and memory
//
// The engine never allocates O(population) training state. Each client
// exists first as a cheap descriptor — index, defended/straggler membership
// (bitsets drawn once per scenario, one bit per client, 122 KB a set at a
// million clients), and a shard length resolved from a lazy partition (a
// data.Partitioner makes its keyed draws once, up front, and
// data.LazyPartition then derives any shard's length and computes any
// Shard(k) on demand without touching the other shards; an IID partition
// keeps only its shuffled sample pool). A client is
// instantiated only when a round's cohort leases it:
//
//	SampleIndices → Lease(round, indices) → train/observe → aggregate → Release
//
// Lease materializes the cohort in index order; Release runs after the
// server step and records the cohort in ascending index order, and the
// round's report is collected from that cohort alone, since no other client
// has an outcome for the round. On a strike round that collection, in the
// server's AfterRound hook, also scores the dishonest server's captures
// against the raw batches the cohort recorded and then drops both, so no
// image outlives its round. Release also shrinks each cohort client to a
// compact departed record holding only its cross-round state: its training
// rng and its own defense pipeline when defended (stateful stages such as
// dpsgd must continue). A later Lease rebuilds the client from its
// descriptor and that record, so a resampled client behaves exactly as one
// never released, and a long cross-device run retains about a hundred
// bytes per client it ever sampled rather than the whole client. The heavy
// per-round buffers recycle through the internal/tensor pool: decoded
// model weights are released by the client once its gradients are
// computed, the gradient buffers themselves are uploaded and released by
// the server once merged (as every fl.Server does), and the aggregate, when
// the round has one, is released once the step is applied, holding live tensor
// memory to O(workers × model) instead of O(cohort × model).
//
// When Options.Workers is zero the per-round concurrency cap comes from a
// cost model, min(NumCPU, budget/footprint, cohort) with a fixed round-state
// budget and a per-client footprint proportional to the model size, rather
// than NumCPU alone — reports are worker-invariant, so the cap only shapes
// memory and wall clock. The cross-device-1M preset (one million clients,
// 1024-client cohorts) exercises exactly this regime and backs the CI
// memory-ceiling job.
//
// # Failure semantics
//
// Dropped clients, stragglers past the virtual deadline, and erroring
// clients degrade a round — their updates are skipped, participation is
// recorded, and aggregation proceeds over what arrived — and a round lost
// entirely is recorded with zero participants rather than aborting the run
// (fl.ServerConfig.TolerateFailures underneath). Cancelling the context
// passed to RunContext ends the run with an error and no report.
//
// See cmd/oasis-sim for the CLI and Presets for ready-made populations.
package sim
