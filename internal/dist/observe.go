package dist

import "github.com/oasisfl/oasis/internal/obs"

// Distributed-sweep instruments. Self-gated on the obs session like every
// other instrument in the tree; see internal/obs for the determinism
// contract (none of these ever touch report bytes).
var (
	// Coordinator side.
	obsLeases     = obs.NewCounter("dist_leases_total", "jobs leased to workers")
	obsReleased   = obs.NewCounter("dist_released_total", "leases returned to the queue after a worker died or timed out")
	obsDupResults = obs.NewCounter("dist_duplicate_results_total", "results for already-merged jobs, idempotently dropped")
	obsBadResults = obs.NewCounter("dist_rejected_results_total", "results that failed grid validation and were discarded")
	obsWorkersNow = obs.NewGauge("dist_connected_workers", "workers currently registered with the coordinator")

	// Worker side.
	obsWorkerLeases  = obs.NewCounter("dist_worker_leases_total", "leases this worker accepted and ran")
	obsWorkerRetries = obs.NewCounter("dist_worker_retries_total", "dial/session failures that triggered a backoff retry")
)
