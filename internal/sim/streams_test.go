package sim

import (
	"math"
	oldrand "math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

// flagsScenario is a population with both a defended fraction and a straggler
// tail, the two scenario-level membership draws.
func flagsScenario() Scenario {
	return Scenario{
		Name: "flags", Seed: 7, Clients: 40, Rounds: 2,
		Dataset:   DatasetSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Samples: 160},
		Defense:   DefenseSpec{Kind: "oasis:MR", Fraction: 0.5},
		Straggler: StragglerSpec{Fraction: 0.3, MeanDelayMS: 50, BaseDelayMS: 5},
	}
}

// TestStragglerSetIndependentOfDefense is the regression test for the stream
// isolation bugfix: straggler membership used to be drawn from the same
// scenario-level stream as the defense assignment, so toggling Defense.Kind
// on an otherwise identical scenario silently reshuffled which clients
// straggle — exactly the cross-cell confound the sweep isolates. Each draw
// now has its own keyed stream.
func TestStragglerSetIndependentOfDefense(t *testing.T) {
	defendedOn := flagsScenario()
	defendedOff := flagsScenario()
	defendedOff.Defense = DefenseSpec{}

	_, _, stragglersOn := populationFlags(defendedOn)
	_, _, stragglersOff := populationFlags(defendedOff)
	if !reflect.DeepEqual(stragglersOn, stragglersOff) {
		t.Errorf("toggling the defense reshuffled the straggler set:\n  on: %v\n off: %v",
			stragglersOn, stragglersOff)
	}

	// And the converse: the defended set must not depend on the straggler
	// spec either.
	noTail := flagsScenario()
	noTail.Straggler = StragglerSpec{}
	defendedA, nA, _ := populationFlags(flagsScenario())
	defendedB, nB, _ := populationFlags(noTail)
	if nA != nB || !reflect.DeepEqual(defendedA, defendedB) {
		t.Errorf("dropping the straggler tail reshuffled the defended set:\n with: %v\n  w/o: %v",
			defendedA, defendedB)
	}
}

// TestPopulationFlagsCounts pins the membership sizes to the rounded spec
// fractions for both draws.
func TestPopulationFlagsCounts(t *testing.T) {
	sc := flagsScenario()
	defended, nDefended, stragglers := populationFlags(sc)
	if nDefended != 20 {
		t.Errorf("defended count %d, want 20 (0.5 of 40)", nDefended)
	}
	if got := defended.Count(); got != nDefended {
		t.Errorf("defended membership count %d, want %d", got, nDefended)
	}
	if got := stragglers.Count(); got != 12 {
		t.Errorf("straggler membership count %d, want 12 (0.3 of 40)", got)
	}
}

// TestMembershipMatchesLegacyFlags is the regression test for the O(cohort)
// membership bugfix: the membership bitsets must mark exactly the clients the
// historical []bool slices did. The legacy draw is reimplemented inline
// (Perm prefix over the same keyed streams) and compared client by client.
func TestMembershipMatchesLegacyFlags(t *testing.T) {
	sc := flagsScenario()
	legacy := func(salt uint64, count int) []bool {
		flags := make([]bool, sc.Clients)
		rng := nn.RandSource(sc.Seed, salt)
		for _, idx := range rng.Perm(sc.Clients)[:count] {
			flags[idx] = true
		}
		return flags
	}
	defended, nDefended, stragglers := populationFlags(sc)
	wantDefended := legacy(saltDefense, nDefended)
	wantStragglers := legacy(saltStraggler, 12)
	for i := 0; i < sc.Clients; i++ {
		if got := defended.Contains(i); got != wantDefended[i] {
			t.Errorf("defended.Contains(%d) = %v, legacy flag %v", i, got, wantDefended[i])
		}
		if got := stragglers.Contains(i); got != wantStragglers[i] {
			t.Errorf("stragglers.Contains(%d) = %v, legacy flag %v", i, got, wantStragglers[i])
		}
	}
	if defended.Contains(-1) || defended.Contains(sc.Clients) {
		t.Error("membership claims out-of-range clients")
	}
}

// TestDrawMembershipMarksPermPrefix: a drawn membership marks exactly
// rng.Perm(n)[:count] of its keyed stream, for n off a word boundary and
// count 0, 1, n or anything between, and claims no client outside [0, n):
// not −1, not n, and no bit of the last word past n.
func TestDrawMembershipMarksPermPrefix(t *testing.T) {
	prop := func(seed uint64, nRaw uint16, pick uint8) bool {
		n := 1 + int(nRaw)%4000
		if n%64 == 0 {
			n++
		}
		count := []int{0, 1, n, int(seed % uint64(n+1))}[pick%4]
		m := drawMembership(seed, saltStraggler, n, count)
		want := make([]bool, n)
		if count > 0 {
			for _, i := range nn.RandSource(seed, saltStraggler).Perm(n)[:count] {
				want[i] = true
			}
		}
		ok := m.Count() == count
		for i := range n {
			ok = ok && m.Contains(i) == want[i]
		}
		for i := n; i < (n+63)/64*64+64; i++ {
			ok = ok && !m.Contains(i)
		}
		ok = ok && !m.Contains(-1) && !m.Contains(math.MinInt)
		if !ok {
			t.Logf("drawMembership(seed %d, n %d, count %d) differs from the Perm prefix", seed, n, count)
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 300, Rand: oldrand.New(oldrand.NewSource(30))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestReliabilityDrawsPrefixStable pins the keyed-stream property behind
// growing populations: a client's per-round reliability stream depends only
// on (seed, index, round), so adding clients to a scenario never changes the
// fate of the clients that were already there.
func TestReliabilityDrawsPrefixStable(t *testing.T) {
	outcome := func(clients, index, round int) (bool, bool, float64) {
		sc := flagsScenario()
		sc.Clients = clients
		sc.Dropout = 0.2
		sc.DeadlineMS = 60
		sc.Dataset.Samples = clients * 4
		d := sc.Dataset
		ds := data.NewSynthCustom("prefix", d.Classes, d.Channels, d.Height, d.Width, d.Samples, sc.Seed)
		parts, err := data.IID{}.PartitionLazy(ds, clients, nn.RandSource(sc.Seed, saltPartition))
		if err != nil {
			t.Fatal(err)
		}
		vp := newVirtualPopulation(sc, ds, parts)
		c, err := vp.instantiate(virtualClient{index: index, straggler: true}, departed{})
		if err != nil {
			t.Fatal(err)
		}
		o := c.draw(round)
		return o.dropped, o.late, o.delayMS
	}
	for _, index := range []int{0, 7, 39} {
		for round := 0; round < 3; round++ {
			d1, l1, ms1 := outcome(40, index, round)
			d2, l2, ms2 := outcome(4000, index, round)
			if d1 != d2 || l1 != l2 || ms1 != ms2 {
				t.Errorf("client %d round %d fate changed when the population grew 40→4000: (%v,%v,%g) vs (%v,%v,%g)",
					index, round, d1, l1, ms1, d2, l2, ms2)
			}
		}
	}
}

// TestScenarioCloneIsolation: Clone must deep-copy the one sliced field so a
// per-cell copy mutated by one sweep worker can never alias another's.
func TestScenarioCloneIsolation(t *testing.T) {
	sc, _ := Preset("smoke")
	sc.Attack.Rounds = []int{1, 3}
	clone := sc.Clone()
	if !reflect.DeepEqual(clone, sc) {
		t.Fatalf("clone differs from the original:\n orig: %+v\nclone: %+v", sc, clone)
	}
	clone.Attack.Rounds[0] = 99
	if sc.Attack.Rounds[0] != 1 {
		t.Error("mutating the clone's attack rounds wrote through to the original")
	}
}

// TestScenarioWithSeed: the replicate helper must change only the seed, on a
// fully isolated copy.
func TestScenarioWithSeed(t *testing.T) {
	sc, _ := Preset("smoke")
	sc.Attack.Rounds = []int{1}
	rep := sc.WithSeed(1234)
	if rep.Seed != 1234 {
		t.Fatalf("WithSeed seed = %d, want 1234", rep.Seed)
	}
	rep.Seed = sc.Seed
	if !reflect.DeepEqual(rep, sc) {
		t.Errorf("WithSeed changed more than the seed:\n orig: %+v\n rep: %+v", sc, rep)
	}
	rep.Attack.Rounds[0] = 42
	if sc.Attack.Rounds[0] != 1 {
		t.Error("WithSeed copy aliases the original's attack rounds")
	}
}
