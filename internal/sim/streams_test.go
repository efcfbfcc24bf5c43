package sim

import (
	"math"
	"math/bits"
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

// TestDrawMembershipProperties: over n off a word boundary and count 0, 1,
// n, past n or anything between, a drawn membership has exactly
// min(count, n) bits set, matching Count(), claims no client outside
// [0, n) (not −1, not n, and no bit of the last word past n), and is a
// function of its keyed stream alone.
func TestDrawMembershipProperties(t *testing.T) {
	prop := func(seed uint64, nRaw uint16, pick uint8) bool {
		n := 1 + int(nRaw)%4000
		if n%64 == 0 {
			n++
		}
		count := []int{0, 1, n, n + 3, int(seed % uint64(n+1))}[pick%5]
		m := drawMembership(seed, saltStraggler, n, count)
		set := 0
		for _, w := range m.bits {
			set += bits.OnesCount64(w)
		}
		ok := m.Count() == min(count, n) && set == m.Count()
		for i := n; i < (n+63)/64*64+64; i++ {
			ok = ok && !m.Contains(i)
		}
		ok = ok && !m.Contains(-1) && !m.Contains(math.MinInt)
		ok = ok && reflect.DeepEqual(m, drawMembership(seed, saltStraggler, n, count))
		if !ok {
			t.Logf("drawMembership(seed %d, n %d, count %d): count %d, %d bits set", seed, n, count, m.Count(), set)
		}
		return ok
	}
	cfg := &quick.Config{MaxCount: 300, Rand: oldrand.New(oldrand.NewSource(30))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestDrawMembershipUniform is a chi-square test of Floyd's draw: over many
// keyed streams, each of n = 7 clients joins a 3-member set with
// probability 3/7. The statistic is compared with the chi-square quantile
// at p = 0.001 for 6 degrees of freedom; the inclusion counts are
// negatively correlated, which only shrinks it.
func TestDrawMembershipUniform(t *testing.T) {
	const n, count, trials = 7, 3, 26_000
	included := make([]float64, n)
	for seed := range uint64(trials) {
		m := drawMembership(seed, saltDefense, n, count)
		for i := range n {
			if m.Contains(i) {
				included[i]++
			}
		}
	}
	want, chi := float64(trials*count)/n, 0.0
	for _, c := range included {
		chi += (c - want) * (c - want) / want
	}
	if chi > 22.458 {
		t.Errorf("inclusion chi-square %.2f > 22.458: %v", chi, included)
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
