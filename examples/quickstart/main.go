// Quickstart: run an active reconstruction attack against one client batch,
// with and without the OASIS defense, and compare reconstruction quality.
//
//	go run ./examples/quickstart
//
// Expected output: without OASIS the RTF attack recovers every image
// essentially verbatim (PSNR at the 150 dB cap); with OASIS major rotation
// the reconstructions collapse to unrecognizable blends around 15–20 dB.
package main

import (
	"fmt"
	"log"

	oasis "github.com/oasisfl/oasis"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds := oasis.NewSynthCIFAR100(42)
	rng := oasis.NewRand(1, 2)

	// The client's private batch D.
	batch, err := oasis.RandomBatch(ds, rng, 8)
	if err != nil {
		return err
	}

	// The dishonest server plants an RTF imprint layer with 500 neurons.
	atk, err := oasis.NewAttack("rtf", ds, 500, 0, rng)
	if err != nil {
		return err
	}

	// Attack the raw batch: the client trains on D as-is.
	evRaw, _, err := atk.Run(batch, batch.Images, rng)
	if err != nil {
		return err
	}
	fmt.Printf("without OASIS: %d reconstructions, mean PSNR %.2f dB (max %.2f)\n",
		evRaw.NumReconstructions, evRaw.MeanPSNR(), evRaw.MaxPSNR())

	// Defend with OASIS major rotation: D′ = D ∪ rotations (Eq. 7).
	def, err := oasis.NewDefense("MR")
	if err != nil {
		return err
	}
	defended := def.ApplyBatch(batch)
	evDef, _, err := atk.Run(defended, batch.Images, rng)
	if err != nil {
		return err
	}
	fmt.Printf("with OASIS %s: %d reconstructions, mean PSNR %.2f dB (max %.2f)\n",
		def.Name(), evDef.NumReconstructions, evDef.MeanPSNR(), evDef.MaxPSNR())

	if evDef.MaxPSNR() < 100 && evRaw.MeanPSNR() > 100 {
		fmt.Println("OASIS offset the attack: no image was recovered verbatim.")
	}
	return nil
}
