package main

import (
	"net"
	"sync"
	"time"
)

// wireProxy is a loopback TCP proxy placed between dist workers and the
// coordinator on traced runs. It counts the bytes the sessions move and times
// the coordinator's turnaround: from the latest bytes of a worker's message
// to the first bytes of the coordinator's next message.
type wireProxy struct {
	ln       net.Listener
	upstream string
	wg       sync.WaitGroup

	mu    sync.Mutex
	stats wireStats
}

// wireStats is what a proxy saw over all its connections.
type wireStats struct {
	bytes       int64
	turnarounds []time.Duration
}

// session is one proxied connection's timing state, guarded by the proxy's
// mutex.
type session struct {
	replied  bool      // the coordinator has sent at least one message
	awaiting bool      // the worker sent a message after the last reply
	lastUp   time.Time // when the worker's latest bytes arrived
}

func startProxy(upstream string) (*wireProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &wireProxy{ln: ln, upstream: upstream}
	p.wg.Add(1)
	go p.accept()
	return p, nil
}

// Addr is the address workers dial instead of the coordinator's.
func (p *wireProxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, waits until every proxied connection has ended, and
// returns the totals.
func (p *wireProxy) Close() wireStats {
	p.ln.Close()
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

func (p *wireProxy) accept() {
	defer p.wg.Done()
	for {
		down, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.serve(down)
		}()
	}
}

// serve relays one worker connection until both directions have ended.
func (p *wireProxy) serve(down net.Conn) {
	defer down.Close()
	up, err := net.Dial("tcp", p.upstream)
	if err != nil {
		return
	}
	defer up.Close()
	s := &session{}
	var relays sync.WaitGroup
	relays.Add(2)
	go func() {
		defer relays.Done()
		p.relay(up, down, s, true)
	}()
	go func() {
		defer relays.Done()
		p.relay(down, up, s, false)
	}()
	relays.Wait()
}

// relay copies src to dst, accounting each chunk. At the end of src it
// half-closes dst so the peer sees the end of the stream; if dst cannot be
// written the session is dead and both ends are closed.
func (p *wireProxy) relay(dst, src net.Conn, s *session, fromWorker bool) {
	buf := make([]byte, 32<<10)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			p.saw(s, fromWorker, n)
			if _, err := dst.Write(buf[:n]); err != nil {
				dst.Close()
				src.Close()
				return
			}
		}
		if err != nil {
			break
		}
	}
	if tc, ok := dst.(*net.TCPConn); ok {
		_ = tc.CloseWrite() // serve closes the connection once both relays end
	}
}

// saw accounts n bytes read in one direction of a session. The worker's
// hello precedes the coordinator's first message and is not a result, so
// only worker messages sent after a reply start a turnaround.
//
//oasis:allow-walltime the proxy times the coordinator's turnaround from outside
func (p *wireProxy) saw(s *session, fromWorker bool, n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stats.bytes += int64(n)
	if fromWorker {
		s.lastUp = time.Now()
		s.awaiting = s.replied
		return
	}
	s.replied = true
	if s.awaiting {
		s.awaiting = false
		p.stats.turnarounds = append(p.stats.turnarounds, time.Since(s.lastUp))
	}
}
