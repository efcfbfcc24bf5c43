package dist

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/obs"
)

// CoordinatorConfig shapes a distributed sweep's serving side.
type CoordinatorConfig struct {
	// Sweep is the grid to evaluate — the same config RunSweep takes.
	// CellWorkers is ignored (the worker fleet is the pool); Workers and
	// Quick travel inside every lease so all workers run cells identically.
	// Sweep.Checkpoint must be empty: the coordinator's checkpoint is the
	// Checkpoint field below.
	Sweep experiments.SweepConfig
	// Addr is the TCP listen address, e.g. "127.0.0.1:9444" ("127.0.0.1:0"
	// for an ephemeral port — read it back with Coordinator.Addr).
	Addr string
	// Checkpoint is the JSONL file completed jobs stream to; non-empty
	// enables crash/resume. It is opened with experiments.OpenCheckpoint,
	// exactly as an in-process sweep opens SweepConfig.Checkpoint, so either
	// side can resume the other's file: an existing file must describe the
	// same grid, its completed jobs are not re-run, and a torn final line is
	// cut off.
	Checkpoint string
	// LeaseTimeout bounds how long a worker may hold a job: a worker that
	// sends no result within LeaseTimeout + ExchangeTimeout of its lease is
	// dropped and the job re-queued, the same path as a broken connection.
	// Zero means 2 minutes. Too short only wastes duplicate work —
	// correctness never depends on it, because results merge idempotently.
	LeaseTimeout time.Duration
	// ExchangeTimeout bounds one non-blocking protocol exchange (hello,
	// lease write). Zero means 30 seconds.
	ExchangeTimeout time.Duration
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Coordinator runs a sweep grid across remote workers: it enumerates the
// grid's jobs, leases them over TCP, re-leases when a worker's connection
// breaks or stays silent past its lease, streams completed results to the
// checkpoint, and performs the same deterministic grid-order merge as
// in-process RunSweep.
type Coordinator struct {
	cfg  CoordinatorConfig
	grid *experiments.SweepGrid
	ln   net.Listener
	ckpt *experiments.Checkpoint
	span *obs.Span
	// ctx ends when the caller's context does or Wait stops the run; every
	// handler watches it.
	ctx    context.Context
	cancel context.CancelFunc

	// queue holds the pending job IDs in dispatch order. A job ID is only
	// ever queued, leased to one handler, or done, so the NumJobs capacity
	// means a release never blocks.
	queue    chan int
	finished chan struct{} // closed when every job has a result

	mu      sync.Mutex
	results []*experiments.SweepJobResult
	done    int
	workers int

	handlers sync.WaitGroup
}

// StartCoordinator validates the grid, loads the checkpoint, binds the
// listener, and begins serving workers in the background. Call Wait for the
// final report.
func StartCoordinator(ctx context.Context, cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.LeaseTimeout <= 0 {
		cfg.LeaseTimeout = 2 * time.Minute
	}
	if cfg.ExchangeTimeout <= 0 {
		cfg.ExchangeTimeout = 30 * time.Second
	}
	if cfg.Sweep.Checkpoint != "" {
		return nil, fmt.Errorf("dist: checkpoint %s is set on the sweep; set CoordinatorConfig.Checkpoint instead", cfg.Sweep.Checkpoint)
	}
	grid, err := experiments.NewSweepGrid(cfg.Sweep)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:      cfg,
		grid:     grid,
		queue:    make(chan int, grid.NumJobs()),
		results:  make([]*experiments.SweepJobResult, grid.NumJobs()),
		finished: make(chan struct{}),
	}
	if cfg.Checkpoint != "" {
		if c.ckpt, c.done, err = experiments.OpenCheckpoint(cfg.Checkpoint, grid, c.results); err != nil {
			return nil, err
		}
		if c.done > 0 {
			c.logf("resumed %d/%d jobs from %s", c.done, grid.NumJobs(), cfg.Checkpoint)
		}
	}
	for _, id := range grid.Order() {
		if c.results[id] == nil {
			c.queue <- id
		}
	}
	ctx, c.span = obs.Start(ctx, "dist.serve",
		obs.String("scenario", grid.Base.Name), obs.Int("jobs", grid.NumJobs()),
		obs.Int("resumed", c.done))
	c.ctx, c.cancel = context.WithCancel(ctx)
	if c.done == grid.NumJobs() {
		close(c.finished) // fully-checkpointed grid: nothing to serve
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		c.cancel()
		c.ckpt.Close()
		c.span.End()
		return nil, fmt.Errorf("dist: listen %s: %w", cfg.Addr, err)
	}
	c.ln = ln
	go c.acceptLoop()
	return c, nil
}

// RunCoordinator is StartCoordinator + Wait: serve the grid until every job
// has a result (or ctx ends), then merge and return the report. The report
// is byte-identical to an in-process RunSweep of the same config, regardless
// of worker count, join order, or crash/resume history.
func RunCoordinator(ctx context.Context, cfg CoordinatorConfig) (*experiments.SweepReport, error) {
	c, err := StartCoordinator(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return c.Wait(ctx)
}

// Addr returns the bound listener address (useful with ":0").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Wait blocks until the grid is complete or ctx ends, then tears the
// listener down (workers get goodbyes) and merges. On cancellation the
// partial report of completed cells is returned with the context error.
func (c *Coordinator) Wait(ctx context.Context) (*experiments.SweepReport, error) {
	var cancelErr error
	select {
	case <-c.finished:
	case <-ctx.Done():
		cancelErr = ctx.Err()
	case <-c.ctx.Done():
		cancelErr = c.ctx.Err()
	}
	c.ln.Close() // stops accepts; handlers drain and say goodbye
	if cancelErr != nil {
		c.cancel() // stop handlers waiting for a lease or for a result
	}
	// A completed grid is only stopped once every handler has returned:
	// stopping earlier would poison connections mid-goodbye.
	c.handlers.Wait()
	c.cancel()
	if err := c.ckpt.Close(); err != nil && cancelErr == nil {
		cancelErr = err
	}
	c.span.End()
	c.mu.Lock()
	results := append([]*experiments.SweepJobResult(nil), c.results...)
	c.mu.Unlock()
	report, mergeErr := c.grid.Merge(results)
	if cancelErr != nil {
		return report, fmt.Errorf("dist: coordinator interrupted: %w", cancelErr)
	}
	return report, mergeErr
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		fmt.Fprintf(c.cfg.Log, "dist: "+format+"\n", args...)
	}
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed
		}
		c.handlers.Add(1)
		go func() {
			defer c.handlers.Done()
			c.handle(conn)
		}()
	}
}

// acquire blocks until a job can be leased, the grid finishes, or the run
// stops. It returns (-1, false) when the worker should be told goodbye. A
// stopped run wins over a queued job, so an idle worker gets its goodbye
// rather than a lease the run would abandon.
func (c *Coordinator) acquire() (int, bool) {
	for c.ctx.Err() == nil {
		select {
		case <-c.finished:
			return -1, false
		case <-c.ctx.Done():
			return -1, false
		case id := <-c.queue:
			c.mu.Lock()
			completed := c.results[id] != nil
			c.mu.Unlock()
			if completed {
				continue // a stray result for it arrived while it was queued
			}
			obsLeases.Inc()
			return id, true
		}
	}
	return -1, false
}

// release returns an uncompleted leased job to the queue: its worker's
// connection broke, went silent past the lease, or answered with a result
// for another job.
func (c *Coordinator) release(id int) {
	c.mu.Lock()
	completed := c.results[id] != nil
	c.mu.Unlock()
	if !completed {
		c.queue <- id
		obsReleased.Inc()
	}
}

// complete merges one result idempotently: the first result for a job wins
// (and is checkpointed); later duplicates — a re-leased job finished twice —
// are dropped. Results that fail grid validation are discarded.
func (c *Coordinator) complete(res experiments.SweepJobResult, workerID string) {
	if err := c.grid.CheckResult(res); err != nil {
		obsBadResults.Inc()
		c.logf("discarding invalid result from %s: %v", workerID, err)
		return
	}
	id := c.grid.JobID(res.Cell, res.Rep)
	c.mu.Lock()
	if c.results[id] != nil {
		c.mu.Unlock()
		obsDupResults.Inc()
		c.logf("duplicate result for job %d from %s dropped", id, workerID)
		return
	}
	c.results[id] = &res
	c.done++
	finished := c.done == c.grid.NumJobs()
	c.mu.Unlock()
	if err := c.ckpt.Append(res); err != nil {
		c.logf("%v", err)
	}
	if res.Err == "" {
		c.logf("job %d (%s × %s, seed %d) from %s: %d recon, PSNR %.1f dB",
			id, res.Attack, res.Defense, res.Seed, workerID, res.Reconstructions, res.PSNR)
	} else {
		c.logf("job %d (%s × %s, seed %d) from %s failed: %s",
			id, res.Attack, res.Defense, res.Seed, workerID, res.Err)
	}
	if finished {
		close(c.finished)
	}
}

// handle speaks the protocol with one worker connection: hello, then
// lease/result exchanges until the grid completes. Any decode error — a
// malformed gob stream, a truncated message, a dead peer, a worker silent
// past LeaseTimeout + ExchangeTimeout — drops the connection and returns the
// in-flight lease to the queue. That is the only way a lease is lost.
//
//oasis:allow-walltime connection and lease deadlines are real-time by design
func (c *Coordinator) handle(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	_ = conn.SetReadDeadline(time.Now().Add(c.cfg.ExchangeTimeout))
	// Unblock a pending exchange when the run stops. A deadline armed after
	// this fires lifts it, so the lease read below checks c.ctx again.
	stop := context.AfterFunc(c.ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()
	var hello wireHello
	if err := dec.Decode(&hello); err != nil || hello.WorkerID == "" {
		return // not a worker; nothing was leased
	}
	c.mu.Lock()
	c.workers++
	obsWorkersNow.Set(float64(c.workers))
	c.mu.Unlock()
	c.logf("worker %s connected", hello.WorkerID)
	defer func() {
		c.mu.Lock()
		c.workers--
		obsWorkersNow.Set(float64(c.workers))
		c.mu.Unlock()
	}()
	for {
		id, ok := c.acquire()
		_ = conn.SetWriteDeadline(time.Now().Add(c.cfg.ExchangeTimeout))
		if !ok {
			_ = enc.Encode(wireCoordMsg{Goodbye: true})
			return
		}
		lease := wireLease{
			Job:      c.grid.Job(id),
			Scenario: c.grid.JobScenario(id),
			Quick:    c.grid.Quick,
			Workers:  c.grid.Workers,
		}
		if err := enc.Encode(wireCoordMsg{Lease: &lease}); err != nil {
			c.release(id)
			c.logf("worker %s dropped before its lease (job %d re-queued): %v", hello.WorkerID, id, err)
			return
		}
		// The worker is now computing: allow the full lease window plus
		// slack before declaring the connection dead.
		_ = conn.SetReadDeadline(time.Now().Add(c.cfg.LeaseTimeout + c.cfg.ExchangeTimeout))
		var reply wireResult
		err := c.ctx.Err()
		if err == nil {
			err = dec.Decode(&reply)
		}
		if err != nil {
			c.release(id)
			c.logf("worker %s dropped mid-lease (job %d re-queued): %v", hello.WorkerID, id, err)
			return
		}
		c.complete(reply.Result, hello.WorkerID)
		// A result for some other job (a late duplicate) leaves the leased
		// job unanswered: put it straight back.
		if c.grid.JobID(reply.Result.Cell, reply.Result.Rep) != id ||
			c.grid.CheckResult(reply.Result) != nil {
			c.release(id)
		}
	}
}
