package dist

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/obs"
	"github.com/oasisfl/oasis/internal/sim"
)

// WorkerConfig shapes one worker process of a distributed sweep.
type WorkerConfig struct {
	// Addr is the coordinator's TCP address.
	Addr string
	// ID names the worker in coordinator logs; empty derives "<host>-<pid>".
	ID string
	// Attempts bounds consecutive dial/session failures before giving up.
	// Zero means 10. A successful lease resets the count.
	Attempts int
	// BaseBackoff is the first retry delay; it doubles per consecutive
	// failure up to MaxBackoff. Zero means 100ms base, 5s cap. The schedule
	// is deterministic — no jitter — so tests (and operators) can predict
	// exactly when attempt N lands.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Workers overrides the per-cell simulation parallelism carried in each
	// lease; zero defers to the lease (and the lease's zero defers to
	// sim.Options' own default).
	Workers int
	// ExchangeTimeout bounds one non-blocking protocol exchange (dial,
	// hello, result write). Zero means 30 seconds.
	ExchangeTimeout time.Duration
	// Log receives progress lines; nil discards them.
	Log io.Writer
}

// Backoff is the worker's retry schedule: base<<(attempt-1) capped at max,
// for attempt ≥ 1. Deterministic by design — the dist tests assert exact
// delays, and a jittered schedule buys nothing on a localhost fleet this
// small.
func Backoff(base, maxDelay time.Duration, attempt int) time.Duration {
	if attempt < 1 {
		return 0
	}
	d := base
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxDelay {
			return maxDelay
		}
	}
	return min(d, maxDelay)
}

// RunWorker dials the coordinator and serves leases until the coordinator
// says goodbye (returns nil), ctx ends, or Attempts consecutive failures
// exhaust the backoff schedule. Dial refusals, broken sessions, and send
// failures all land in the same retry loop; a result the worker could not
// deliver is simply dropped — the broken session re-queues the job at the
// coordinator, and any eventual duplicate merges idempotently.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Attempts <= 0 {
		cfg.Attempts = 10
	}
	if cfg.BaseBackoff <= 0 {
		cfg.BaseBackoff = 100 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 5 * time.Second
	}
	if cfg.ExchangeTimeout <= 0 {
		cfg.ExchangeTimeout = 30 * time.Second
	}
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "dist: worker %s: "+format+"\n", append([]any{cfg.ID}, args...)...)
		}
	}
	attempt := 0
	for {
		done, err := workerSession(ctx, cfg, logf)
		if done {
			return err
		}
		if err == errSessionProgress {
			// A session that completed leases earned a fresh failure budget.
			attempt = 0
		}
		attempt++
		if attempt >= cfg.Attempts {
			return fmt.Errorf("dist: worker %s: giving up after %d attempts: %w", cfg.ID, attempt, err)
		}
		obsWorkerRetries.Inc()
		delay := Backoff(cfg.BaseBackoff, cfg.MaxBackoff, attempt)
		logf("attempt %d failed (%v); retrying in %v", attempt, err, delay)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(delay):
		}
	}
}

// errSessionProgress tags a session that broke after completing at least one
// lease: the coordinator is real and reachable, so the failure budget resets.
var errSessionProgress = fmt.Errorf("session made progress before failing")

// workerSession runs one dial→hello→lease-loop session. done=true means
// RunWorker should return err as-is (goodbye or cancellation); done=false
// means retry with backoff.
//
//oasis:allow-walltime connection deadlines against a remote peer are real-time by design
func workerSession(ctx context.Context, cfg WorkerConfig, logf func(string, ...any)) (done bool, err error) {
	if ctx.Err() != nil {
		return true, ctx.Err()
	}
	d := net.Dialer{Timeout: cfg.ExchangeTimeout}
	conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
	if err != nil {
		if ctx.Err() != nil {
			return true, ctx.Err()
		}
		return false, err
	}
	defer conn.Close()
	// Cancellation mid-decode: poison the conn so blocked reads return.
	stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(time.Now()) })
	defer stop()
	enc := gob.NewEncoder(conn)
	dec := gob.NewDecoder(conn)
	_ = conn.SetWriteDeadline(time.Now().Add(cfg.ExchangeTimeout))
	if err := enc.Encode(wireHello{WorkerID: cfg.ID}); err != nil {
		return ctx.Err() != nil, firstErr(ctx.Err(), err)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	ran := 0
	for {
		// Waiting for a lease can legitimately take as long as the rest of
		// the grid: no read deadline here — cancellation poisons the conn.
		lctx, lease := obs.Start(ctx, "dist.lease", obs.String("coordinator", cfg.Addr))
		var msg wireCoordMsg
		if err := dec.Decode(&msg); err != nil {
			lease.SetAttr(obs.Bool("ok", false))
			lease.End()
			if ctx.Err() != nil {
				return true, ctx.Err()
			}
			if ran > 0 {
				return false, errSessionProgress
			}
			return false, err
		}
		if msg.Goodbye || msg.Lease == nil {
			lease.SetAttr(obs.Bool("goodbye", true))
			lease.End()
			logf("goodbye after %d jobs", ran)
			return true, nil
		}
		l := *msg.Lease
		lease.SetAttr(obs.Int("job", l.Job.ID), obs.String("attack", l.Job.Attack),
			obs.String("defense", l.Job.Defense))
		lease.End()
		obsWorkerLeases.Inc()
		workers := l.Workers
		if cfg.Workers > 0 {
			workers = cfg.Workers
		}
		cctx, cell := obs.Start(lctx, "dist.cell", obs.Int("job", l.Job.ID))
		res := experiments.RunSweepJob(cctx, l.Job, l.Scenario, sim.Options{Quick: l.Quick, Workers: workers})
		cell.SetAttr(obs.Bool("ok", res.Err == ""))
		cell.End()
		ran++
		logf("job %d (%s × %s, seed %d) done", l.Job.ID, l.Job.Attack, l.Job.Defense, l.Job.Seed)
		_ = conn.SetWriteDeadline(time.Now().Add(cfg.ExchangeTimeout))
		if err := enc.Encode(wireResult{Result: res}); err != nil {
			if ctx.Err() != nil {
				return true, ctx.Err()
			}
			// The result is lost; closing the connection re-queues its job.
			return false, errSessionProgress
		}
		_ = conn.SetWriteDeadline(time.Time{})
	}
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
