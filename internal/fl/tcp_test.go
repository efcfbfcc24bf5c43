package fl

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

// startTCPClients dials n local clients into the server and returns a
// cleanup that cancels them and waits for their loops to exit.
func startTCPClients(t *testing.T, addr string, n int) func() {
	t.Helper()
	shards := testShards(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		client := NewLocalClient(fmt.Sprintf("tcp-c%d", i), shards[i], 8, nn.RandSource(20, uint64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := ServeTCP(ctx, addr, client); err != nil {
				t.Errorf("ServeTCP: %v", err)
			}
		}()
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

func TestTCPEndToEnd(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPServerOptions{ExchangeTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := startTCPClients(t, srv.Addr(), 3)
	defer stop()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.WaitForClients(ctx, 3); err != nil {
		t.Fatal(err)
	}
	server := NewServer(ServerConfig{Rounds: 4, LearningRate: 0.05, Seed: 8}, testModel(nil), srv)
	hist, err := server.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Rounds) != 4 {
		t.Fatalf("%d rounds", len(hist.Rounds))
	}
	for _, r := range hist.Rounds {
		if len(r.Clients) != 3 {
			t.Errorf("round %d had %d clients", r.Round, len(r.Clients))
		}
		if r.UpdateBytes == 0 {
			t.Errorf("round %d reported empty payloads", r.Round)
		}
	}
}

func TestTCPGracefulGoodbye(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shards := testShards(t, 1)
	client := NewLocalClient("solo", shards[0], 8, nn.RandSource(21, 1))
	done := make(chan error, 1)
	go func() {
		done <- ServeTCP(context.Background(), srv.Addr(), client)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.WaitForClients(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("client exited with error after goodbye: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not exit after server goodbye")
	}
}

func TestTCPClientContextCancel(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shards := testShards(t, 1)
	client := NewLocalClient("cancelme", shards[0], 8, nn.RandSource(22, 1))
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- ServeTCP(ctx, srv.Addr(), client)
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := srv.WaitForClients(wctx, 1); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("cancelled client returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("client did not exit on context cancel")
	}
}

func TestTCPClientErrorSurfacesAtServer(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A client whose shard is too small to satisfy its batch size errors
	// on every round.
	shards := testShards(t, 1)
	client := NewLocalClient("broken", shards[0], 8, nn.RandSource(23, 1))
	client.BatchSize = 8
	client.Shard = shards[0]
	client.Pre = errPre{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() { _ = ServeTCP(ctx, srv.Addr(), client) }()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := srv.WaitForClients(wctx, 1); err != nil {
		t.Fatal(err)
	}
	server := NewServer(ServerConfig{Rounds: 1}, testModel(nil), srv)
	if _, err := server.Run(context.Background()); err == nil {
		t.Error("client-side error did not surface at the server")
	}
}

type errPre struct{}

func (errPre) Apply(*data.Batch) (*data.Batch, error) { return nil, fmt.Errorf("defense exploded") }
func (errPre) Name() string                           { return "errpre" }

func TestTCPDuplicateClientIDReplacesOld(t *testing.T) {
	srv, err := ListenTCP("127.0.0.1:0", TCPServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	shards := testShards(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		client := NewLocalClient("same-id", shards[i], 8, nn.RandSource(24, uint64(i)))
		go func() { _ = ServeTCP(ctx, srv.Addr(), client) }()
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := srv.WaitForClients(wctx, 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let both handshakes land
	if got := srv.NumClients(); got != 1 {
		t.Errorf("%d clients registered for one ID", got)
	}
}
