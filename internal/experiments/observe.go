package experiments

import "github.com/oasisfl/oasis/internal/obs"

// Sweep-grid instruments. Self-gated on the obs session like every other
// instrument in the tree; see internal/obs for the determinism contract.
var (
	obsSweepJobs        = obs.NewCounter("sweep_jobs_total", "cell×replicate scenario runs dispatched")
	obsSweepJobFailures = obs.NewCounter("sweep_job_failures_total", "cell×replicate runs that returned an error")
	obsCellWorkers      = obs.NewGauge("sweep_cell_workers", "grid-level worker-pool size of the most recent sweep")
	// The checkpoint count keeps the name it had when only the distributed
	// coordinator resumed from a checkpoint.
	obsResumed = obs.NewCounter("dist_checkpoint_resumed_total", "jobs restored from the JSONL checkpoint instead of re-run")
)
