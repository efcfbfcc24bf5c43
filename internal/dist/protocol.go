package dist

import (
	"encoding/gob"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/sim"
)

// The coordinator/worker transport speaks a minimal gob protocol over TCP,
// modeled on internal/fl/tcp.go:
//
//	worker → coordinator  wireHello{WorkerID}
//	coordinator → worker  wireCoordMsg{Lease}     (one leased job)
//	worker → coordinator  wireResult{Result}      (the job's outcome)
//	…lease/result repeats…
//	coordinator → worker  wireCoordMsg{Goodbye}   (grid complete)
//
// The exchange alternates strictly: after the hello, every coordinator
// message is a lease or the goodbye, and every worker message is the result
// of some job. A result's job identity travels inside the result itself
// (cell, rep), not positionally — so a result for a job other than the one
// just leased is legal and handled: the coordinator merges it idempotently
// by its own coordinates and immediately re-queues the job it had leased.
//
// gob's stream framing handles message boundaries; per-exchange deadlines
// bound the damage of a stalled peer. A worker that dies or stalls mid-lease
// fails the coordinator's read of its result — the connection breaks, or the
// read deadline of LeaseTimeout + ExchangeTimeout passes — and the job
// returns to the queue.

// wireHello introduces a worker. An empty WorkerID is rejected.
type wireHello struct {
	WorkerID string
}

// wireLease hands one job to a worker: the job's grid coordinates plus the
// fully-materialized scenario and run options, so workers stay thin — no
// grid enumeration, no axis validation, just "run this scenario".
type wireLease struct {
	Job      experiments.SweepJob
	Scenario sim.Scenario
	Quick    bool
	Workers  int
}

// wireCoordMsg is the tagged coordinator→worker envelope: one lease, or the
// goodbye that ends the session.
type wireCoordMsg struct {
	Goodbye bool
	Lease   *wireLease
}

// wireResult carries one completed job back. Failures travel in
// Result.Err — they are results, not transport errors.
type wireResult struct {
	Result experiments.SweepJobResult
}

func init() {
	gob.Register(wireHello{})
	gob.Register(wireCoordMsg{})
	gob.Register(wireResult{})
}
