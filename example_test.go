package oasis_test

import (
	"fmt"

	oasis "github.com/oasisfl/oasis"
)

// The package example mirrors the README quickstart: one attack, one
// defense, compared on the same private batch.
func Example() {
	ds := oasis.NewSynthCIFAR100(42)
	rng := oasis.NewRand(1, 2)
	batch, _ := oasis.RandomBatch(ds, rng, 8)

	atk, _ := oasis.NewAttack("rtf", ds, 500, 0, rng)
	evRaw, _, _ := atk.Run(batch, batch.Images, rng)

	def, _ := oasis.NewDefense("MR")
	defended := def.ApplyBatch(batch)
	evDef, _, _ := atk.Run(defended, batch.Images, rng)

	fmt.Println("undefended verbatim:", evRaw.MeanPSNR() > 100)
	fmt.Println("defended verbatim:  ", evDef.MaxPSNR() > 100)
	// Output:
	// undefended verbatim: true
	// defended verbatim:   false
}

// ExampleDefense_ApplyBatch shows the Eq. 7 batch expansion.
func ExampleDefense_ApplyBatch() {
	ds := oasis.NewSynthImageNet(7)
	rng := oasis.NewRand(7, 7)
	batch, _ := oasis.RandomBatch(ds, rng, 4)

	def, _ := oasis.NewDefense("MR+SH")
	defended := def.ApplyBatch(batch)
	fmt.Printf("|D| = %d, |D'| = %d\n", batch.Size(), defended.Size())
	// Output: |D| = 4, |D'| = 28
}

// ExampleAnalyzeProp1 checks the Proposition-1 condition directly against a
// calibrated malicious layer.
func ExampleAnalyzeProp1() {
	ds := oasis.NewSynthCIFAR100(5)
	rng := oasis.NewRand(5, 5)
	atk, _ := oasis.NewAttack("rtf", ds, 200, 0, rng)
	batch, _ := oasis.RandomBatch(ds, rng, 4)

	def, _ := oasis.NewDefense("MR")
	w, b := atk.Layer()
	rep, _ := oasis.AnalyzeProp1(def, batch, w, b)
	fmt.Printf("same-set fraction: %.0f%%\n", rep.SameSetFraction*100)
	// Output: same-set fraction: 100%
}
