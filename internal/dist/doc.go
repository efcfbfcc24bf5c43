// Package dist runs a sweep grid across processes: a coordinator leases
// (cell, replicate) jobs to thin workers over a gob/TCP protocol, streams
// every completed result to a JSONL checkpoint, and merges in deterministic
// grid order so the final SweepReport is byte-identical to an in-process
// experiments.RunSweep of the same config — regardless of worker count, join
// order, or crash/resume history.
//
// # Lease lifecycle
//
// Every job is in exactly one of three states: queued, leased, or done.
//
//	queued ── worker asks ──▶ leased ── result arrives ──▶ done
//	  ▲                         │
//	  └──── result read fails ──┘
//
// A lease carries the fully-materialized scenario, so workers never
// enumerate the grid — they dial, say hello, and run whatever arrives.
// Pending job IDs wait in one FIFO channel sized to the grid; the handler
// that holds a lease is the only one that can return it. A lease is lost one
// way: the handler's read of the result fails, because the connection broke,
// the stream was malformed, or the worker sent nothing for LeaseTimeout +
// ExchangeTimeout. The handler then re-queues the job and drops the
// connection. While a slow worker is within that deadline, its job is leased
// to no one else.
// Re-queueing can only duplicate work, never corrupt the report: results
// self-identify by (cell, rep), completion is idempotent (first result wins,
// duplicates are counted and dropped), and a replicate's statistics are
// scheduling-independent, so two runs of the same job return identical
// numbers.
//
// # Checkpoint format
//
// The coordinator's checkpoint is the sweep's JSON Lines checkpoint: a
// header pinning the grid, then one fsynced result line per completed job.
// The coordinator opens it with experiments.OpenCheckpoint, exactly as an
// in-process sweep does, so that function's documentation holds the resume
// rules, and either kind of run resumes the other's file to the same report
// bytes.
//
// # Determinism contract
//
// Byte-identical output holds because all three layers are
// scheduling-independent:
//
//  1. the grid layout (job → cell, replicate, seed) depends only on the
//     config (experiments.SweepGrid),
//  2. each job's statistics depend only on its scenario and seed
//     (sim.RunContext is deterministic for a fixed seed), and
//  3. the merge folds results in grid order, ignoring arrival order
//     (experiments.SweepGrid.Merge).
//
// The transport can therefore reorder, duplicate, or replay anything
// without observable effect. Only instrumentation (internal/obs spans and
// counters) varies between runs, and obs never touches report bytes.
package dist
