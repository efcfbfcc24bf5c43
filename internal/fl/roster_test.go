package fl

import (
	"fmt"
	"testing"
)

// TestTCPServerClientsSorted pins the determinism fix in the TCP roster:
// indices must refer to clients sorted by ID regardless of registration
// (map) order, because they feed Server.selectRound's sampler — with a
// map-ordered roster the same rng draws would select different clients on
// every run. Registering many clients makes an accidentally-sorted map
// iteration astronomically unlikely.
func TestTCPServerClientsSorted(t *testing.T) {
	s := &TCPServer{clients: make(map[string]*remoteClient)}
	const n = 64
	// Insert in reverse order so insertion order is also wrong.
	indices := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		id := fmt.Sprintf("client-%03d", i)
		s.clients[id] = &remoteClient{id: id}
		indices[i] = i
	}
	if got := s.NumClients(); got != n {
		t.Fatalf("NumClients() = %d, want %d", got, n)
	}
	got, err := s.Lease(0, indices)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		want := fmt.Sprintf("client-%03d", i)
		if c.ID() != want {
			t.Fatalf("Lease index %d = %q, want %q (roster must be sorted by ID)", i, c.ID(), want)
		}
	}
}

// TestTCPServerRosterFrozenPerRound: a client that connects between
// NumClients and Lease must not shift the indices the sampler drew, because
// NumSamples and Lease read the roster NumClients froze.
func TestTCPServerRosterFrozenPerRound(t *testing.T) {
	s := &TCPServer{clients: map[string]*remoteClient{
		"b": {id: "b"}, "d": {id: "d"},
	}}
	if n := s.NumClients(); n != 2 {
		t.Fatalf("NumClients() = %d, want 2", n)
	}
	s.clients["a"] = &remoteClient{id: "a"} // sorts before every frozen ID
	got, err := s.Lease(0, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID() != "d" || got[1].ID() != "b" {
		t.Errorf("leased %s,%s; want d,b from the frozen roster", got[0].ID(), got[1].ID())
	}
	if _, err := s.Lease(0, []int{2}); err == nil {
		t.Error("leased an index beyond the frozen roster")
	}
	if n := s.NumClients(); n != 3 {
		t.Errorf("next round's NumClients() = %d, want 3", n)
	}
}

// TestMemoryRosterLease: Lease returns the registered clients in argument
// order, NumSamples reads SizedClient, and out-of-range indices error.
func TestMemoryRosterLease(t *testing.T) {
	r := NewMemoryRoster()
	r.Add(&failingClient{id: "plain"})
	r.Add(&sizedFailingClient{failingClient{id: "sized"}, 7})
	if r.NumSamples(0) != 0 || r.NumSamples(1) != 7 {
		t.Errorf("NumSamples = %d,%d; want 0,7", r.NumSamples(0), r.NumSamples(1))
	}
	got, err := r.Lease(0, []int{1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0].ID() != "sized" || got[1].ID() != "plain" || got[2].ID() != "sized" {
		t.Errorf("leased %s,%s,%s", got[0].ID(), got[1].ID(), got[2].ID())
	}
	for _, bad := range []int{-1, 2} {
		if _, err := r.Lease(0, []int{bad}); err == nil {
			t.Errorf("Lease(%d) on a roster of 2 succeeded", bad)
		}
	}
}
