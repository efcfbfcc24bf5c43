// Layered defense: compose a batch-stage and a gradient-stage countermeasure
// into one pipeline via the public registry API, attach it to federated
// clients, and watch a dishonest server fail against the stack.
//
//	go run ./examples/layered
//
// The pipeline "oasis:MR|dpsgd:1,0.1" first expands every batch with OASIS
// major rotations (so a malicious neuron can extract at best a blend of an
// image and its transforms), then clips and noises the uploaded gradients —
// the §V layering the paper argues real deployments need against
// population-scale attacks.
package main

import (
	"context"
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
	const spec = "oasis:MR|dpsgd:1,0.1"

	// Parse the spec once to show the resolved chain (any rng works for
	// display; each client below gets its own pipeline instance).
	display, err := oasis.NewDefensePipeline(spec, nil)
	if err != nil {
		return err
	}
	fmt.Printf("defense pipeline %q resolves to %s\n", spec, display.Name())
	for i, stage := range display.StageNames() {
		fmt.Printf("  stage %d: %s\n", i+1, stage)
	}

	// A small federated population where every client runs the full stack.
	ds := oasis.NewSynthDataset("layered", 6, 1, 16, 16, 360, 42)
	shards, err := oasis.ShardDataset(ds, 3, oasis.NewRand(42, 1))
	if err != nil {
		return err
	}
	roster := oasis.NewMemoryRoster()
	for i, shard := range shards {
		client := oasis.NewFLClient(fmt.Sprintf("site-%d", i), shard, 8, oasis.NewRand(42, uint64(i)+10))
		// One pipeline per client: the DPSGD stage keeps per-client noise
		// state and must not be shared.
		def, err := oasis.NewDefensePipeline(spec, oasis.NewRand(7, uint64(i)))
		if err != nil {
			return err
		}
		client.Defense = def
		roster.Add(client)
	}

	// The dishonest server plants an RTF imprint layer and inverts uploads.
	rng := oasis.NewRand(42, 99)
	atk, err := oasis.NewAttack("rtf", ds, 64, 8, rng)
	if err != nil {
		return err
	}
	dishonest, err := oasis.NewAttackServer(atk, rng)
	if err != nil {
		return err
	}
	model := oasis.NewMLP(ds, 32, rng)
	server := oasis.NewFLServer(oasis.FLServerConfig{Rounds: 3, LearningRate: 0.05, Seed: 42}, model, roster)
	server.Modifier = dishonest
	server.Observer = dishonest

	if _, err := server.Run(context.Background()); err != nil {
		return err
	}
	recon := 0
	for _, cap := range dishonest.Captures() {
		recon += len(cap.Reconstructions)
	}
	fmt.Printf("dishonest server captured %d uploads, reconstructed %d images\n",
		len(dishonest.Captures()), recon)
	fmt.Println("every upload passed both stages: augmented batches, then clipped+noised gradients")
	return nil
}
