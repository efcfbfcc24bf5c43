package fl

import "github.com/oasisfl/oasis/internal/obs"

// Round-engine instruments. All of them self-gate on the obs session (one
// atomic load while disabled), so the engine carries them permanently; see
// internal/obs for the determinism contract.
var (
	obsRounds       = obs.NewCounter("fl_rounds_total", "FL rounds started")
	obsEmptyRounds  = obs.NewCounter("fl_empty_rounds_total", "rounds in which every selected client failed")
	obsClientOK     = obs.NewCounter("fl_client_ok_total", "client updates merged into aggregation")
	obsClientFailed = obs.NewCounter("fl_client_failed_total", "client round handlers that returned an error")
	obsClientMS     = obs.NewHistogram("fl_client_ms", "wall-clock per client HandleRound (worker-span utilization)", obs.DefDurationBucketsMS)
	obsRoundWorkers = obs.NewGauge("fl_round_workers", "worker-pool size of the most recent round dispatch")
)
