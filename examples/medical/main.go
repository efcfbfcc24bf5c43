// Medical-imaging scenario (paper §I): hospitals collaboratively train a
// diagnostic classifier under HIPAA/GDPR-style constraints — raw scans must
// never leave a site. The aggregation server turns dishonest and plants a
// CAH trap layer to steal scans from gradient updates; the example contrasts
// an undefended federation with one whose sites run OASIS (MR+SH).
//
//	go run ./examples/medical
package main

import (
	"context"
	"fmt"
	"log"

	oasis "github.com/oasisfl/oasis"
)

const (
	numHospitals = 4
	rounds       = 3
	batchSize    = 8
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Synthetic single-channel "scans", 6 diagnostic classes, 48×48.
	scans := oasis.NewSynthDataset("ct-scans", 6, 1, 48, 48, 512, 7)
	rng := oasis.NewRand(7, 1)
	shards, err := oasis.ShardDataset(scans, numHospitals, rng)
	if err != nil {
		return err
	}
	// Cache every hospital's raw scans once: the evaluation below compares
	// each reconstruction against the whole federation corpus.
	var originals []*oasis.Image
	for _, shard := range shards {
		for i := 0; i < shard.Len(); i++ {
			im, _ := shard.Sample(i)
			originals = append(originals, im)
		}
	}

	scenarios := []struct {
		label   string
		defense string
		batch   int
	}{
		{"UNDEFENDED sites (B=8)", "", batchSize},
		{"sites running OASIS MR+SH (B=8)", "MR+SH", batchSize},
		{"sites running OASIS MR+SH (B=16)", "MR+SH", 2 * batchSize},
	}
	for _, sc := range scenarios {
		var def *oasis.Defense
		if sc.defense != "" {
			if def, err = oasis.NewDefense(sc.defense); err != nil {
				return err
			}
		}
		fmt.Printf("--- federation with %s ---\n", sc.label)

		roster := oasis.NewMemoryRoster()
		for i, shard := range shards {
			client := oasis.NewFLClient(fmt.Sprintf("hospital-%d", i+1), shard, sc.batch, oasis.NewRand(7, uint64(i+10)))
			if def != nil {
				client.Defense = def
			}
			roster.Add(client)
		}

		// The dishonest aggregation server plants a CAH trap layer.
		atk, err := oasis.NewAttack("cah", scans, 300, 16, rng)
		if err != nil {
			return err
		}
		dishonest, err := oasis.NewAttackServer(atk, rng)
		if err != nil {
			return err
		}
		server := oasis.NewFLServer(
			oasis.FLServerConfig{Rounds: rounds, ClientsPerRound: 2, LearningRate: 0.05, Seed: 7},
			oasis.NewMLP(scans, 64, rng),
			roster,
		)
		server.Modifier = dishonest
		server.Observer = dishonest

		if _, err := server.Run(context.Background()); err != nil {
			return err
		}

		// How much did the server learn? Compare reconstructions against
		// each hospital's full shard.
		captures := dishonest.Captures()
		leaked := map[int]bool{} // distinct original scans recovered verbatim
		total := 0
		bestPSNR := 0.0
		for _, cap := range captures {
			for _, recon := range cap.Reconstructions {
				total++
				idx, p := bestAgainst(recon, originals)
				if p > bestPSNR {
					bestPSNR = p
				}
				if p > 100 {
					leaked[idx] = true
				}
			}
		}
		fmt.Printf("server inverted %d gradient updates → %d reconstructions\n", len(captures), total)
		fmt.Printf("distinct private scans recovered verbatim: %d (best PSNR %.1f dB)\n\n", len(leaked), bestPSNR)
	}
	return nil
}

// bestAgainst scans the cached federation corpus for the closest original,
// returning its index and PSNR.
func bestAgainst(recon *oasis.Image, originals []*oasis.Image) (int, float64) {
	bestIdx, best := -1, 0.0
	for i, im := range originals {
		if im.C != recon.C || im.H != recon.H || im.W != recon.W {
			continue
		}
		if p := oasis.PSNR(recon, im); p > best {
			best, bestIdx = p, i
		}
	}
	return bestIdx, best
}
