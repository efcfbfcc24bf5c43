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
//	  "test_samples": 128,
//	  "real_time": false               // sleep straggler delays for real
//	}
//
// Unknown fields are rejected, so typos fail instead of silently running a
// different experiment.
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
// # Virtual clients and memory
//
// The engine never allocates O(population) training state. Each client
// exists first as a cheap descriptor — index, defended/straggler membership
// (sorted-index sets drawn once per scenario, O(count) retained), and a
// shard length resolved from a lazy partition (a data.Partitioner makes
// its keyed draws once, up front, and data.LazyPartition then computes any
// Shard(k) on demand without touching the other shards). A client is
// instantiated only when a round's cohort leases it:
//
//	SampleIndices → Lease(round, indices) → train/observe → aggregate → Release
//
// Lease materializes the cohort in index order; Release runs after the
// server step and records the cohort in ascending index order, and the
// round's report is collected from that cohort alone, since no other client
// has an outcome for the round. Instantiated clients stay resident across
// rounds — their
// training rng and stateful defense pipelines (e.g. dpsgd) must continue,
// and residency is bounded by rounds × cohort, not population — while the
// heavy per-round buffers recycle through the internal/tensor pool: decoded
// model parameters are released by the client after gradients are cloned
// out, and uploaded gradients are released by the server once aggregated
// (fl.ServerConfig.ReleaseUpdates), holding live tensor memory to
// O(workers × model) instead of O(cohort × model).
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
// (fl.ServerConfig.TolerateFailures + AllowEmptyRounds underneath).
//
// See cmd/oasis-sim for the CLI and Presets for ready-made populations.
package sim
