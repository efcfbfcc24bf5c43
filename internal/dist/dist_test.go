package dist

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/oasisfl/oasis/internal/experiments"
	"github.com/oasisfl/oasis/internal/sim"
)

// testSweep is the tiny grid every dist test evaluates: 2 attacks × 2
// defenses × 2 replicates = 8 jobs, quick cap, serial inside each cell.
func testSweep() experiments.SweepConfig {
	return experiments.SweepConfig{
		Attacks:    []string{"rtf", "qbi"},
		Defenses:   []string{"none", "prune:0.3"},
		Replicates: 2,
		Workers:    1,
		Quick:      true,
	}
}

// serialGolden runs the grid in-process at CellWorkers 1 — the byte-identity
// reference every distributed run is compared against.
func serialGolden(t *testing.T) []byte {
	t.Helper()
	cfg := testSweep()
	cfg.CellWorkers = 1
	rep, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func startTestCoordinator(t *testing.T, ctx context.Context, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	if cfg.Sweep.Attacks == nil {
		cfg.Sweep = testSweep()
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	c, err := StartCoordinator(ctx, cfg)
	if err != nil {
		t.Fatalf("StartCoordinator: %v", err)
	}
	return c
}

// goWorker runs a worker against addr in the background. The test fails
// unless the worker returns nil, the goodbye of a completed grid, before the
// test ends.
func goWorker(t *testing.T, ctx context.Context, addr, id string) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		done <- RunWorker(ctx, WorkerConfig{Addr: addr, ID: id, BaseBackoff: time.Millisecond})
	}()
	t.Cleanup(func() {
		if err := <-done; err != nil {
			t.Errorf("worker %s: %v", id, err)
		}
	})
}

// TestDistributedByteIdentity is the subsystem's acceptance bar: a
// coordinator with two concurrent workers must produce report JSON
// byte-identical to the serial in-process run.
func TestDistributedByteIdentity(t *testing.T) {
	golden := serialGolden(t)
	ctx := context.Background()
	c := startTestCoordinator(t, ctx, CoordinatorConfig{})
	goWorker(t, ctx, c.Addr(), "w1")
	goWorker(t, ctx, c.Addr(), "w2")
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(golden, raw) {
		t.Fatalf("distributed report diverges from serial:\n%s\nvs\n%s", raw, golden)
	}
}

// rawClient speaks the wire protocol by hand, for protocol-abuse tests.
type rawClient struct {
	conn net.Conn
	enc  *gob.Encoder
	dec  *gob.Decoder
}

func dialRaw(t *testing.T, addr string) *rawClient {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	return &rawClient{conn: conn, enc: gob.NewEncoder(conn), dec: gob.NewDecoder(conn)}
}

func (r *rawClient) hello(t *testing.T, id string) {
	t.Helper()
	if err := r.enc.Encode(wireHello{WorkerID: id}); err != nil {
		t.Fatalf("hello: %v", err)
	}
}

func (r *rawClient) lease(t *testing.T) wireLease {
	t.Helper()
	var msg wireCoordMsg
	if err := r.dec.Decode(&msg); err != nil {
		t.Fatalf("decode lease: %v", err)
	}
	if msg.Goodbye || msg.Lease == nil {
		t.Fatalf("expected a lease, got goodbye")
	}
	return *msg.Lease
}

// TestWorkerKillMidGridReleases kills a worker that holds a lease and checks
// the job is re-leased to a healthy worker, with the final report still
// byte-identical to serial.
func TestWorkerKillMidGridReleases(t *testing.T) {
	golden := serialGolden(t)
	ctx := context.Background()
	c := startTestCoordinator(t, ctx, CoordinatorConfig{})
	// The doomed worker takes one lease and dies without answering.
	doomed := dialRaw(t, c.Addr())
	doomed.hello(t, "doomed")
	_ = doomed.lease(t)
	doomed.conn.Close() // connection break → immediate re-queue
	goWorker(t, ctx, c.Addr(), "healthy")
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	raw, _ := rep.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("report diverges after mid-grid worker kill:\n%s\nvs\n%s", raw, golden)
	}
}

// TestDuplicateResultDropped submits the same job result twice (the second
// time against a lease for a different job) and checks the duplicate is
// dropped, the unanswered lease is re-queued, and the report stays
// byte-identical.
func TestDuplicateResultDropped(t *testing.T) {
	golden := serialGolden(t)
	ctx := context.Background()
	c := startTestCoordinator(t, ctx, CoordinatorConfig{})
	rc := dialRaw(t, c.Addr())
	rc.hello(t, "dup")
	l1 := rc.lease(t)
	res := experiments.RunSweepJob(ctx, l1.Job, l1.Scenario, sim.Options{Quick: l1.Quick, Workers: 1})
	if err := rc.enc.Encode(wireResult{Result: res}); err != nil {
		t.Fatalf("send result: %v", err)
	}
	l2 := rc.lease(t)
	if l2.Job.ID == l1.Job.ID {
		t.Fatalf("second lease re-issued job %d", l1.Job.ID)
	}
	// Answer the second lease with the first job's result again: a duplicate
	// for an already-merged job. The coordinator must drop it and put the
	// second job back in the queue.
	if err := rc.enc.Encode(wireResult{Result: res}); err != nil {
		t.Fatalf("send duplicate: %v", err)
	}
	l3 := rc.lease(t) // protocol continues; the dup did not wedge the session
	if l3.Job.ID == l1.Job.ID {
		t.Fatalf("duplicate result re-opened job %d", l1.Job.ID)
	}
	rc.conn.Close()
	goWorker(t, ctx, c.Addr(), "finisher")
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	raw, _ := rep.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("report diverges after duplicate result:\n%s\nvs\n%s", raw, golden)
	}
}

// TestMalformedStreams throws garbage at the coordinator — before the hello
// and in place of a result — and checks both connections are dropped without
// wedging the grid or corrupting the report.
func TestMalformedStreams(t *testing.T) {
	golden := serialGolden(t)
	ctx := context.Background()
	c := startTestCoordinator(t, ctx, CoordinatorConfig{ExchangeTimeout: time.Second})
	// Garbage instead of a hello: dropped before anything is leased.
	junk, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	junk.Write([]byte("GET / HTTP/1.1\r\n\r\n")) //nolint:errcheck
	junk.Close()
	// Valid hello, then a truncated/garbage reply in place of the result:
	// the lease must return to the queue.
	rc := dialRaw(t, c.Addr())
	rc.hello(t, "garbler")
	_ = rc.lease(t)
	rc.conn.Write([]byte{0xff, 0x00, 0x13, 0x37}) //nolint:errcheck
	rc.conn.Close()
	goWorker(t, ctx, c.Addr(), "cleaner")
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	raw, _ := rep.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("report diverges after malformed streams:\n%s\nvs\n%s", raw, golden)
	}
}

// TestLeaseTimeoutRequeues checks the silent-worker path: a worker that
// accepts a lease and stalls (without dying) is dropped once its result is
// LeaseTimeout + ExchangeTimeout overdue, its job goes to a live worker, and
// the report stays byte-identical.
func TestLeaseTimeoutRequeues(t *testing.T) {
	golden := serialGolden(t)
	ctx := context.Background()
	const lease, exchange = 50 * time.Millisecond, 200 * time.Millisecond
	c := startTestCoordinator(t, ctx, CoordinatorConfig{LeaseTimeout: lease, ExchangeTimeout: exchange})
	stalled := dialRaw(t, c.Addr())
	stalled.hello(t, "stalled")
	_ = stalled.lease(t) // hold the lease and never answer
	leased := time.Now()
	defer stalled.conn.Close()
	goWorker(t, ctx, c.Addr(), "live")
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if elapsed := time.Since(leased); elapsed < lease+exchange {
		t.Fatalf("grid finished %v after the stalled lease, before its %v deadline", elapsed, lease+exchange)
	}
	raw, _ := rep.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("report diverges after lease-timeout re-queue:\n%s\nvs\n%s", raw, golden)
	}
	// The coordinator dropped the stalled connection: no goodbye, no lease.
	_ = stalled.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var msg wireCoordMsg
	err = stalled.dec.Decode(&msg)
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read on the stalled connection: %+v, %v; want the connection closed", msg, err)
	}
}

// TestWaitReturnsWhenCancelled cancels Wait's own context, not the one the
// coordinator started under, while one worker holds the grid's only job on
// an hour-long lease and another waits for a lease. Wait must stop both
// handlers and return the partial report with the context error.
func TestWaitReturnsWhenCancelled(t *testing.T) {
	ctx := context.Background()
	sweep := testSweep()
	sweep.Attacks, sweep.Defenses, sweep.Replicates = []string{"rtf"}, []string{"none"}, 1
	c := startTestCoordinator(t, ctx, CoordinatorConfig{Sweep: sweep, LeaseTimeout: time.Hour})
	holder := dialRaw(t, c.Addr())
	defer holder.conn.Close()
	holder.hello(t, "holder")
	_ = holder.lease(t)
	waiter := dialRaw(t, c.Addr())
	defer waiter.conn.Close()
	waiter.hello(t, "waiter")
	for start := time.Now(); ; time.Sleep(time.Millisecond) {
		c.mu.Lock()
		n := c.workers
		c.mu.Unlock()
		if n == 2 {
			break
		}
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d workers connected after 5s, want 2", n)
		}
	}
	wctx, cancel := context.WithCancel(ctx)
	cancel()
	type waited struct {
		rep *experiments.SweepReport
		err error
	}
	done := make(chan waited, 1)
	start := time.Now()
	go func() {
		rep, err := c.Wait(wctx)
		done <- waited{rep, err}
	}()
	select {
	case w := <-done:
		if !errors.Is(w.err, context.Canceled) {
			t.Fatalf("Wait error = %v, want one wrapping context.Canceled", w.err)
		}
		if w.rep == nil {
			t.Fatal("Wait returned no partial report")
		}
		t.Logf("Wait returned after %v", time.Since(start))
	case <-time.After(5 * time.Second):
		t.Fatal("Wait still blocked 5s after its context was cancelled")
	}
}

// TestCheckpointResume interrupts a distributed run after a few completed
// jobs, then resumes from the checkpoint with a fresh coordinator: completed
// jobs are not re-run (the file gains no duplicate lines) and the final
// report is byte-identical to serial.
func TestCheckpointResume(t *testing.T) {
	golden := serialGolden(t)
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	ctx := context.Background()

	// Phase 1: complete exactly 3 of the 8 jobs by hand, then vanish.
	c1 := startTestCoordinator(t, ctx, CoordinatorConfig{Checkpoint: ckpt})
	rc := dialRaw(t, c1.Addr())
	rc.hello(t, "partial")
	for i := 0; i < 3; i++ {
		l := rc.lease(t)
		res := experiments.RunSweepJob(ctx, l.Job, l.Scenario, sim.Options{Quick: l.Quick, Workers: 1})
		if err := rc.enc.Encode(wireResult{Result: res}); err != nil {
			t.Fatalf("send result %d: %v", i, err)
		}
	}
	// Strict alternation means the 3rd result is only known-processed once
	// the next lease arrives.
	l4 := rc.lease(t)
	rc.conn.Close()
	cctx, cancel := context.WithCancel(ctx)
	cancel() // simulate the crash: abandon the run
	if _, err := c1.Wait(cctx); err == nil {
		t.Fatal("interrupted Wait returned nil error")
	}
	_ = l4

	// Phase 2: resume. The 3 checkpointed jobs must not run again.
	c2 := startTestCoordinator(t, ctx, CoordinatorConfig{Checkpoint: ckpt})
	goWorker(t, ctx, c2.Addr(), "resumer")
	rep, err := c2.Wait(ctx)
	if err != nil {
		t.Fatalf("resumed Wait: %v", err)
	}
	raw, _ := rep.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("resumed report diverges from serial:\n%s\nvs\n%s", raw, golden)
	}
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(data), []byte("\n"))
	if want := 1 + 8; len(lines) != want { // header + one line per job, no duplicates
		t.Fatalf("checkpoint has %d lines, want %d:\n%s", len(lines), want, data)
	}

	// Phase 3: a fully-checkpointed grid needs no workers at all.
	c3 := startTestCoordinator(t, ctx, CoordinatorConfig{Checkpoint: ckpt})
	rep3, err := c3.Wait(ctx)
	if err != nil {
		t.Fatalf("fully-resumed Wait: %v", err)
	}
	raw3, _ := rep3.JSON()
	if !bytes.Equal(golden, raw3) {
		t.Fatalf("fully-resumed report diverges from serial")
	}
}

// TestResumeAscendingCheckpoint: a checkpoint whose result lines are in
// ascending job-ID order, as a serial run wrote them before jobs were
// dispatched out of ID order, resumes to the serial report, both served to a
// worker and in-process. Its jobs are not contiguous in dispatch order.
func TestResumeAscendingCheckpoint(t *testing.T) {
	golden := serialGolden(t)
	grid, err := experiments.NewSweepGrid(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	w, _, err := experiments.OpenCheckpoint(ckpt, grid, make([]*experiments.SweepJobResult, grid.NumJobs()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for id := range grid.NumJobs() / 2 {
		if err := w.Append(grid.RunJob(ctx, id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	// The in-process resume appends to a copy, so the served resume below
	// still starts from the ascending half.
	local := filepath.Join(dir, "local.ckpt")
	if err := os.WriteFile(local, before, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg := testSweep()
	cfg.CellWorkers, cfg.Checkpoint = 1, local
	rep, err := experiments.RunSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if raw, _ := rep.JSON(); !bytes.Equal(golden, raw) {
		t.Fatalf("in-process resume diverges from serial:\n%s\nvs\n%s", raw, golden)
	}

	c := startTestCoordinator(t, ctx, CoordinatorConfig{Checkpoint: ckpt})
	goWorker(t, ctx, c.Addr(), "resumer")
	rep, err = c.Wait(ctx)
	if err != nil {
		t.Fatalf("resumed Wait: %v", err)
	}
	if raw, _ := rep.JSON(); !bytes.Equal(golden, raw) {
		t.Fatalf("served resume diverges from serial:\n%s\nvs\n%s", raw, golden)
	}
	for _, path := range []string{local, ckpt} {
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(after, before) {
			t.Fatalf("resuming rewrote %s's existing lines", path)
		}
		if lines := bytes.Count(after, []byte("\n")); lines != 1+grid.NumJobs() {
			t.Fatalf("%s has %d lines, want a header and one per job", path, lines)
		}
	}
}

// TestCoordinatorResumePastTornLine resumes a served grid twice from a
// checkpoint whose final line a crash tore. Each coordinator must cut the
// fragment before it appends, so the file loads with every job afterwards,
// and the report must equal the serial bytes.
func TestCoordinatorResumePastTornLine(t *testing.T) {
	golden := serialGolden(t)
	grid, err := experiments.NewSweepGrid(testSweep())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	c := startTestCoordinator(t, ctx, CoordinatorConfig{Checkpoint: ckpt})
	goWorker(t, ctx, c.Addr(), "first")
	if _, err := c.Wait(ctx); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	for round := range 2 {
		// Keep half the results and tear the next line in two.
		raw, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		lines := bytes.SplitAfter(raw, []byte("\n"))
		keep := 1 + grid.NumJobs()/2
		torn := append(bytes.Join(lines[:keep], nil), lines[keep][:len(lines[keep])/2]...)
		if err := os.WriteFile(ckpt, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		c := startTestCoordinator(t, ctx, CoordinatorConfig{Checkpoint: ckpt})
		goWorker(t, ctx, c.Addr(), fmt.Sprintf("resumer-%d", round+1))
		rep, err := c.Wait(ctx)
		if err != nil {
			t.Fatalf("resume %d: Wait: %v", round+1, err)
		}
		if raw, _ := rep.JSON(); !bytes.Equal(golden, raw) {
			t.Fatalf("resume %d past a torn line diverges from serial:\n%s\nvs\n%s", round+1, raw, golden)
		}
		ck, resumed, err := experiments.OpenCheckpoint(ckpt, grid, make([]*experiments.SweepJobResult, grid.NumJobs()))
		if err != nil {
			t.Fatalf("resume %d left a checkpoint that does not load: %v", round+1, err)
		}
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
		if resumed != grid.NumJobs() {
			t.Fatalf("resume %d left a checkpoint with %d of %d jobs", round+1, resumed, grid.NumJobs())
		}
	}
}

// TestCoordinatorRejectsSweepCheckpoint: the coordinator's checkpoint is
// CoordinatorConfig.Checkpoint; one set on the sweep config is an error,
// not silently ignored.
func TestCoordinatorRejectsSweepCheckpoint(t *testing.T) {
	sweep := testSweep()
	sweep.Checkpoint = filepath.Join(t.TempDir(), "sweep.ckpt")
	_, err := StartCoordinator(context.Background(), CoordinatorConfig{Sweep: sweep, Addr: "127.0.0.1:0"})
	if err == nil || !strings.Contains(err.Error(), "CoordinatorConfig.Checkpoint") {
		t.Fatalf("err %v, want a rejection naming CoordinatorConfig.Checkpoint", err)
	}
}

// TestBackoffSchedule pins the worker's deterministic retry delays: doubling
// from base, capped at max, no jitter.
func TestBackoffSchedule(t *testing.T) {
	base, maxD := 100*time.Millisecond, 5*time.Second
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 3200 * time.Millisecond,
		5 * time.Second, 5 * time.Second, 5 * time.Second,
	}
	for i, w := range want {
		if got := Backoff(base, maxD, i+1); got != w {
			t.Errorf("Backoff(attempt %d) = %v, want %v", i+1, got, w)
		}
	}
	if got := Backoff(base, maxD, 0); got != 0 {
		t.Errorf("Backoff(attempt 0) = %v, want 0", got)
	}
	// A huge attempt count must not overflow past the cap.
	if got := Backoff(base, maxD, 80); got != maxD {
		t.Errorf("Backoff(attempt 80) = %v, want the %v cap", got, maxD)
	}
}

// TestWorkerGivesUpAfterAttempts checks the bounded retry budget against a
// coordinator that refuses every connection.
func TestWorkerGivesUpAfterAttempts(t *testing.T) {
	addr := refusedAddr(t)
	start := time.Now()
	err := RunWorker(context.Background(), WorkerConfig{
		Addr: addr, ID: "hopeless",
		Attempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond,
	})
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("err = %v, want a giving-up error after 3 attempts", err)
	}
	// Attempts 1 and 2 sleep 1ms and 2ms before attempt 3 fails for good.
	if elapsed := time.Since(start); elapsed < 3*time.Millisecond {
		t.Fatalf("gave up after %v, before the 3ms the backoff schedule mandates", elapsed)
	}
}

// TestWorkerRetriesUntilCoordinatorUp starts the worker first, lets it burn
// refused connections through the backoff schedule, then brings the
// coordinator up on the promised address: the worker must connect and finish
// the grid, byte-identical to serial.
func TestWorkerRetriesUntilCoordinatorUp(t *testing.T) {
	golden := serialGolden(t)
	addr := refusedAddr(t)
	ctx := context.Background()
	workerDone := make(chan error, 1)
	go func() {
		workerDone <- RunWorker(ctx, WorkerConfig{
			Addr: addr, ID: "early-bird",
			Attempts: 50, BaseBackoff: 2 * time.Millisecond, MaxBackoff: 20 * time.Millisecond,
		})
	}()
	time.Sleep(30 * time.Millisecond) // several refused dials land here
	c := startTestCoordinator(t, ctx, CoordinatorConfig{Addr: addr})
	rep, err := c.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if err := <-workerDone; err != nil {
		t.Fatalf("worker: %v", err)
	}
	raw, _ := rep.JSON()
	if !bytes.Equal(golden, raw) {
		t.Fatalf("report diverges after retried start:\n%s\nvs\n%s", raw, golden)
	}
}

// refusedAddr reserves a localhost port and closes it again, yielding an
// address that refuses connections until a test binds it.
func refusedAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}
