// Attacker's-eye view: this example plays the dishonest server of the
// paper's threat model step by step — plant a malicious layer, receive one
// honest gradient update, invert it with Eq. 6, and write the reconstructed
// images next to the client's private originals.
//
//	go run ./examples/dishonestserver
//
// PNG montages land in ./recon_out: one for the undefended client (verbatim
// copies) and one for the OASIS-defended client (unrecognizable blends).
package main

import (
	"fmt"
	"log"
	"path/filepath"

	oasis "github.com/oasisfl/oasis"
	"github.com/oasisfl/oasis/internal/imaging"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds := oasis.NewSynthImageNet(3)
	rng := oasis.NewRand(3, 1)

	// Step 1 — the server crafts the trap: a CAH layer of 400 neurons,
	// calibrated against public data statistics.
	atk, err := oasis.NewAttack("cah", ds, 400, 16, rng)
	if err != nil {
		return err
	}

	// Step 2 — a victim client holds 6 private images.
	private, err := oasis.RandomBatch(ds, rng, 6)
	if err != nil {
		return err
	}

	outDir := "recon_out"
	for _, scenario := range []struct {
		name    string
		defense string
	}{
		{"undefended", ""},
		{"oasis_mr_sh", "MR+SH"},
	} {
		clientBatch := private
		if scenario.defense != "" {
			def, err := oasis.NewDefense(scenario.defense)
			if err != nil {
				return err
			}
			clientBatch = def.ApplyBatch(private)
		}

		// Step 3 — the client honestly computes gradients on the model it
		// was given; the server captures them and inverts.
		ev, recons, err := atk.Run(clientBatch, private.Images, rng)
		if err != nil {
			return err
		}
		fmt.Printf("%-12s %3d reconstructions, mean PSNR %6.2f dB, best %6.2f dB\n",
			scenario.name, ev.NumReconstructions, ev.MeanPSNR(), ev.MaxPSNR())

		// Step 4 — dump original vs best reconstruction, side by side.
		tiles := make([]*oasis.Image, 0, 2*private.Size())
		for _, orig := range private.Images {
			best := orig.Clone()
			bestPSNR := -1.0
			for _, r := range recons {
				if p := oasis.PSNR(r, orig); p > bestPSNR {
					best, bestPSNR = r, p
				}
			}
			tiles = append(tiles, orig.Clone().Clamp(), best)
		}
		m, err := imaging.Montage(tiles, 2)
		if err != nil {
			return err
		}
		path := filepath.Join(outDir, scenario.name+".png")
		if err := m.WritePNG(path); err != nil {
			return err
		}
		fmt.Println("  wrote", path)
	}
	fmt.Println("left column: client's private images; right: what the server recovered")
	return nil
}
