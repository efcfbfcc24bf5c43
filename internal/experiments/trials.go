package experiments

import (
	"fmt"
	rand "math/rand/v2"

	"github.com/oasisfl/oasis/internal/attack"
	"github.com/oasisfl/oasis/internal/augment"
	"github.com/oasisfl/oasis/internal/core"
	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/metrics"
)

// trialAttack is the surface of the calibrated attacks the figures run.
type trialAttack interface {
	Run(clientBatch *data.Batch, originals []*imaging.Image, rng *rand.Rand) (attack.Evaluation, []*imaging.Image, error)
}

// defendFunc turns a drawn batch into the batch the victim trains on and the
// images its reconstructions are scored against.
type defendFunc func(*data.Batch) (client *data.Batch, originals []*imaging.Image)

// oasisDefense defends with def (nil attacks the raw batch) and scores the
// reconstructions against the drawn images.
func oasisDefense(def *core.Defense) defendFunc {
	return func(b *data.Batch) (*data.Batch, []*imaging.Image) {
		if def == nil {
			return b, b.Images
		}
		return def.ApplyBatch(b), b.Images
	}
}

// policyDefense resolves a policy label into its OASIS defense; "WO" (without
// OASIS) resolves to nil.
func policyDefense(label string) (*core.Defense, error) {
	p, err := augment.ByName(label)
	if err != nil || p == nil {
		return nil, err
	}
	return core.New(p), nil
}

// trialLoop is the attack-trial loop behind the figures: each trial draws a
// batch of size batch from ds, lets defend rewrite it, and runs atk against
// the originals defend names.
type trialLoop struct {
	atk    trialAttack
	ds     data.Dataset
	batch  int
	trials int
	// draw picks the batch; nil means data.RandomBatch.
	draw func(data.Dataset, *rand.Rand, int) (*data.Batch, error)
	// defend rewrites the batch; nil attacks the raw batch.
	defend defendFunc
}

// trialRun is a trial loop's outcome: every trial's Evaluation pooled, plus
// the first trial's scored originals and reconstructions for montages.
type trialRun struct {
	ev        attack.Evaluation
	originals []*imaging.Image
	recons    []*imaging.Image
}

// run executes the trials, drawing the batch, the defense and the attack from
// rng in that order.
func (l trialLoop) run(rng *rand.Rand) (trialRun, error) {
	draw, defend := l.draw, l.defend
	if draw == nil {
		draw = data.RandomBatch
	}
	if defend == nil {
		defend = oasisDefense(nil)
	}
	var out trialRun
	for tr := 0; tr < l.trials; tr++ {
		batch, err := draw(l.ds, rng, l.batch)
		if err != nil {
			return trialRun{}, err
		}
		client, originals := defend(batch)
		ev, recons, err := l.atk.Run(client, originals, rng)
		if err != nil {
			return trialRun{}, err
		}
		out.ev.PSNRs = append(out.ev.PSNRs, ev.PSNRs...)
		out.ev.PerOriginalBest = append(out.ev.PerOriginalBest, ev.PerOriginalBest...)
		out.ev.NumReconstructions += ev.NumReconstructions
		if tr == 0 {
			out.originals, out.recons = originals, recons
		}
	}
	return out, nil
}

// verbatim counts the originals some reconstruction recovered verbatim.
func verbatim(ev attack.Evaluation) int {
	n := 0
	for _, p := range ev.PerOriginalBest {
		if p > 100 {
			n++
		}
	}
	return n
}

// psnrBoxHeader is the column layout of the box-plot tables.
var psnrBoxHeader = []string{"dataset", "B", "n", "policy", "count", "mean", "median", "q1", "q3", "min", "max"}

// policyBoxRows adds one PSNR box-plot row per policy to t: prefix, the
// policy, and the PSNR summary of the trial loop setup returns for it, run
// under the policy's OASIS defense from the returned generator.
func policyBoxRows(t *metrics.Table, prefix, policies []string, setup func(policy string) (trialLoop, *rand.Rand, error)) error {
	for _, pol := range policies {
		loop, rng, err := setup(pol)
		if err != nil {
			return err
		}
		def, err := policyDefense(pol)
		if err != nil {
			return err
		}
		loop.defend = oasisDefense(def)
		run, err := loop.run(rng)
		if err != nil {
			return err
		}
		s := metrics.Summarize(run.ev.PSNRs)
		cells := append(append([]string(nil), prefix...), pol,
			fmt.Sprintf("%d", s.N),
			fmt.Sprintf("%.2f", s.Mean),
			fmt.Sprintf("%.2f", s.Median),
			fmt.Sprintf("%.2f", s.Q1),
			fmt.Sprintf("%.2f", s.Q3),
			fmt.Sprintf("%.2f", s.Min),
			fmt.Sprintf("%.2f", s.Max),
		)
		t.AddRow(cells...)
	}
	return nil
}

// buildAttack constructs the calibrated attack for one table cell. CAH traps
// are calibrated for the attacker's fixed anticipated batch regardless of
// the victim's true batch size (see cahAnticipatedBatch).
func buildAttack(set evalSet, n int, useCAH bool, probe int, rng *rand.Rand) (trialAttack, error) {
	if useCAH {
		return attack.NewCAH(set.dims, set.ds.NumClasses(), n, set.ds, rng, probe, cahAnticipatedBatch)
	}
	return attack.NewRTF(set.dims, set.ds.NumClasses(), n, set.ds, rng, probe)
}

// hashLabel derives a stable seed perturbation from a label.
func hashLabel(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
