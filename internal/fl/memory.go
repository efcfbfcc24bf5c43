package fl

import (
	"fmt"
	"sync"
)

// MemoryRoster is the in-process transport: clients are direct references.
// It backs in-process runs, tests and benchmarks, and is safe for concurrent
// registration. Registration only appends, so the indices a round samples
// stay valid while clients keep registering.
type MemoryRoster struct {
	mu      sync.Mutex
	clients resident
}

var _ Roster = (*MemoryRoster)(nil)

// NewMemoryRoster constructs an empty roster.
func NewMemoryRoster() *MemoryRoster { return &MemoryRoster{} }

// Add registers a client.
func (r *MemoryRoster) Add(c Client) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clients = append(r.clients, c)
}

// NumClients returns the number of registered clients.
func (r *MemoryRoster) NumClients() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.clients)
}

// NumSamples reports client i's shard size when it is a SizedClient.
func (r *MemoryRoster) NumSamples(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients.numSamples(i)
}

// Lease returns the registered clients at the given indices.
func (r *MemoryRoster) Lease(_ int, indices []int) ([]Client, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clients.lease(indices)
}

// Release does nothing: registered clients stay resident.
func (*MemoryRoster) Release(int, []Client) {}

// resident is a roster whose clients are all held in memory, in index
// order; MemoryRoster and TCPServer lease from it.
type resident []Client

// numSamples reports client i's local sample count, or 0 when the client
// does not implement SizedClient.
func (r resident) numSamples(i int) int {
	if sc, ok := r[i].(SizedClient); ok {
		return sc.NumSamples()
	}
	return 0
}

// lease returns the clients at indices, in argument order.
func (r resident) lease(indices []int) ([]Client, error) {
	out := make([]Client, len(indices))
	for k, i := range indices {
		if i < 0 || i >= len(r) {
			return nil, fmt.Errorf("fl: client index %d outside a roster of %d", i, len(r))
		}
		out[k] = r[i]
	}
	return out, nil
}
