package attack

import (
	"fmt"
	rand "math/rand/v2"
	"sync"

	"github.com/oasisfl/oasis/internal/fl"
	"github.com/oasisfl/oasis/internal/imaging"
)

// Capture is one reconstruction event: what the dishonest server recovered
// from one client in one round.
type Capture struct {
	Round           int
	ClientID        string
	Reconstructions []*imaging.Image
}

// DishonestServer implements both fl.ModelModifier and fl.UpdateObserver: it
// swaps every dispatched model for the attack's malicious victim model and
// inverts every uploaded gradient. Plug it into fl.Server.Modifier and
// fl.Server.Observer to run the paper's threat model end to end; Observe
// keeps every capture for the life of the server. A caller that scores
// reconstructions as they arrive calls Invert instead, which keeps none.
//
// The fl.Server serializes Observe calls in deterministic client-selection
// order even with a concurrent round engine (Workers > 1), so the capture
// sequence is reproducible under a fixed seed. The mutex below additionally
// makes Captures safe to poll from other goroutines while a run is live.
type DishonestServer struct {
	atk  Attack
	spec fl.ModelSpec

	mu       sync.Mutex
	captures []Capture
}

var (
	_ fl.ModelModifier  = (*DishonestServer)(nil)
	_ fl.UpdateObserver = (*DishonestServer)(nil)
)

// NewAttackServer builds the dishonest-server hooks for any calibrated
// registry attack: one victim model is built up front and dispatched on
// every round the hooks are active.
func NewAttackServer(a Attack, rng *rand.Rand) (*DishonestServer, error) {
	victim, err := a.BuildVictim(rng)
	if err != nil {
		return nil, err
	}
	spec, err := fl.EncodeModel(victim.Net)
	if err != nil {
		return nil, fmt.Errorf("attack: encode malicious model: %w", err)
	}
	return &DishonestServer{atk: a, spec: spec}, nil
}

// Modify discards the honest global model and dispatches the malicious one —
// the paper's §III-A capability ("changing and/or adding model parameters").
func (d *DishonestServer) Modify(_ int, _ fl.ModelSpec) (fl.ModelSpec, error) {
	return d.spec, nil
}

// Name labels the modifier for logs.
func (d *DishonestServer) Name() string { return "dishonest-" + d.atk.Name() }

// Invert reconstructs images from one client's uploaded gradients and
// records nothing. The victim model's parameter order puts the malicious
// layer's weight and bias first; an update whose first pair does not have
// the dispatched layer's shapes is not the malicious layout, and Invert
// reports false for it.
func (d *DishonestServer) Invert(u fl.Update) ([]*imaging.Image, bool) {
	mal := &d.spec.Layers[0]
	if len(u.Grads) < 2 || !u.Grads[0].SameShape(mal.W) || !u.Grads[1].SameShape(mal.B) {
		return nil, false
	}
	return d.atk.Reconstruct(u.Grads[0], u.Grads[1]), true
}

// Observe inverts one client's uploaded gradients and appends the capture;
// an update Invert skips records nothing.
func (d *DishonestServer) Observe(round int, u fl.Update) {
	recons, ok := d.Invert(u)
	if !ok {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.captures = append(d.captures, Capture{
		Round:           round,
		ClientID:        u.ClientID,
		Reconstructions: recons,
	})
}

// Captures returns a snapshot of everything reconstructed so far.
func (d *DishonestServer) Captures() []Capture {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Capture, len(d.captures))
	copy(out, d.captures)
	return out
}
