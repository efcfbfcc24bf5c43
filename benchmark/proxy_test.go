package main

import (
	"io"
	"net"
	"testing"
	"time"
)

// TestProxyCountsBytesAndTurnarounds drives the proxy with a fake worker and
// a fake coordinator speaking fixed-size messages: hello, then lease/result
// twice, then goodbye. The coordinator waits before each reply to a result,
// so each turnaround must be at least that long; the hello's reply is not a
// turnaround.
func TestProxyCountsBytesAndTurnarounds(t *testing.T) {
	const delay = 20 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	coordDone := make(chan error, 1)
	go func() {
		coordDone <- fakeCoordinator(ln, delay)
	}()

	p, err := startProxy(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		send string
		recv int
	}{{"hello", 7}, {"res", 7}, {"res", 1}}
	for _, s := range steps {
		if _, err := conn.Write([]byte(s.send)); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, make([]byte, s.recv)); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	if err := <-coordDone; err != nil {
		t.Fatal(err)
	}
	stats := p.Close()

	if want := int64(5 + 7 + 3 + 7 + 3 + 1); stats.bytes != want {
		t.Errorf("bytes = %d, want %d", stats.bytes, want)
	}
	if len(stats.turnarounds) != 2 {
		t.Fatalf("turnarounds = %v, want 2", stats.turnarounds)
	}
	for _, d := range stats.turnarounds {
		if d < delay {
			t.Errorf("turnaround %v shorter than the coordinator's %v delay", d, delay)
		}
	}
}

// fakeCoordinator serves one connection: it answers the hello at once and
// each result after delay, ending with a one-byte goodbye.
func fakeCoordinator(ln net.Listener, delay time.Duration) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	steps := []struct {
		recv  int
		reply string
		wait  time.Duration
	}{{5, "lease-1", 0}, {3, "lease-2", delay}, {3, "G", delay}}
	for _, s := range steps {
		if _, err := io.ReadFull(conn, make([]byte, s.recv)); err != nil {
			return err
		}
		time.Sleep(s.wait)
		if _, err := conn.Write([]byte(s.reply)); err != nil {
			return err
		}
	}
	// Wait for the worker to hang up, as the real coordinator's handler does
	// after its goodbye.
	_, err = io.ReadAll(conn)
	return err
}
