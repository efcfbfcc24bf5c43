package sim

import (
	"math"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
)

// imageGridScenario is the default sweep base: small enough that both of
// its datasets come from the image memo.
func imageGridScenario() Scenario {
	return Scenario{
		Name: "image-grid", Seed: 42, Clients: 12, Rounds: 3, ClientsPerRound: 6, BatchSize: 4,
		Dataset:     DatasetSpec{Classes: 4, Channels: 1, Height: 8, Width: 8, Samples: 240},
		Partition:   "iid",
		Attack:      AttackSpec{Neurons: 32, AnticipatedBatch: 4, Rounds: []int{1}},
		Model:       ArchSpec{Kind: "mlp", Hidden: 16},
		TestSamples: 64,
	}
}

// TestImageMemoUnmutated runs a quick grid of every built-in attack against
// batch-stage, gradient-stage and no defenses on one seed, holding the
// memoized datasets throughout, then checks every image the memo holds
// against a fresh uncached render, bit for bit: no stage of a run may write
// to a shared image.
func TestImageMemoUnmutated(t *testing.T) {
	base := normalized(t, imageGridScenario())
	train, test := scenarioDatasets(base)
	for _, kind := range []string{"rtf", "cah", "qbi", "loki"} {
		for _, def := range []string{"none", "oasis:MR", "oasis:MR+SH", "dpsgd:1,0.1", "prune:0.3", "ats:MR"} {
			sc := base.WithSeed(base.Seed)
			sc.Attack.Kind = kind
			if def != "none" {
				sc.Defense = DefenseSpec{Kind: def, Fraction: 1}
			}
			if tr, te := scenarioDatasets(normalized(t, sc)); tr != train || te != test {
				t.Fatalf("%s × %s does not share the memoized datasets", kind, def)
			}
			if _, err := Run(sc, Options{Quick: true, Workers: 2}); err != nil {
				t.Fatalf("%s × %s: %v", kind, def, err)
			}
		}
	}
	d := base.Dataset
	for _, c := range []struct {
		held  *data.Synth
		fresh *data.Synth
	}{
		{train, data.NewSynthCustom(base.Name+"-train", d.Classes, d.Channels, d.Height, d.Width, d.Samples, base.Seed)},
		{test, data.NewSynthCustom(base.Name+"-test", d.Classes, d.Channels, d.Height, d.Width, base.TestSamples, base.Seed^0x7e57)},
	} {
		for i := range c.fresh.Len() {
			got, _ := c.held.Sample(i)
			want, _ := c.fresh.Sample(i)
			for p, v := range got.Pix {
				if math.Float64bits(v) != math.Float64bits(want.Pix[p]) {
					t.Fatalf("%s image %d pixel %d is %v after the grid, %v rendered fresh", c.fresh.Name(), i, p, v, want.Pix[p])
				}
			}
		}
	}
}

// TestScenarioDatasetsMemo: a dataset that fits synthMemoBytes is shared
// while a run holds it; a larger one is built anew, uncached, every run.
func TestScenarioDatasetsMemo(t *testing.T) {
	small := normalized(t, imageGridScenario())
	train, test := scenarioDatasets(small)
	if again, _ := scenarioDatasets(small); again != train {
		t.Error("a held small train set was not shared")
	}
	if a, b := sampleTwice(test, 5); a != b {
		t.Error("the memoized test set renders each Sample anew")
	}
	large := small.WithSeed(small.Seed)
	large.Dataset = DatasetSpec{Classes: 10, Channels: 3, Height: 32, Width: 32, Samples: 1024}
	large = normalized(t, large)
	bigTrain, _ := scenarioDatasets(large)
	if again, _ := scenarioDatasets(large); again == bigTrain {
		t.Error("a train set past synthMemoBytes was memoized")
	}
	if a, b := sampleTwice(bigTrain, 5); a == b {
		t.Error("a train set past synthMemoBytes caches its images")
	}
}

func sampleTwice(ds *data.Synth, i int) (a, b *imaging.Image) {
	a, _ = ds.Sample(i)
	b, _ = ds.Sample(i)
	return a, b
}
