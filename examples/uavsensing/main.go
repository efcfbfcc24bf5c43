// Urban-environment sensing scenario (paper §I): UAVs from different
// companies federate a ground-imagery classifier over a real network link.
// Each UAV connects to the coordinator over TCP, preprocesses its batches
// with OASIS, and streams gradient updates; the coordinator is honest here,
// so the run demonstrates the plain protocol plus the defense's training
// behaviour (loss still decreases under augmentation).
//
//	go run ./examples/uavsensing
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	oasis "github.com/oasisfl/oasis"
)

const (
	numUAVs   = 3
	rounds    = 8
	batchSize = 6
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Aerial imagery: 8 land-use classes at 32×32 RGB.
	imagery := oasis.NewSynthDataset("aerial", 8, 3, 32, 32, 2048, 11)
	rng := oasis.NewRand(11, 1)
	shards, err := oasis.ShardDataset(imagery, numUAVs, rng)
	if err != nil {
		return err
	}

	// Coordinator listens on an ephemeral TCP port.
	roster, err := oasis.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer roster.Close()
	fmt.Printf("coordinator listening on %s\n", roster.Addr())

	// Each UAV runs OASIS shearing locally and dials in.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	clientCtx, stopClients := context.WithCancel(ctx)
	defer stopClients()
	var wg sync.WaitGroup
	for i := 0; i < numUAVs; i++ {
		def, err := oasis.NewDefense("SH")
		if err != nil {
			return err
		}
		uav := oasis.NewFLClient(fmt.Sprintf("uav-%d", i+1), shards[i], batchSize, oasis.NewRand(11, uint64(i+20)))
		uav.Defense = def
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := oasis.ServeTCP(clientCtx, roster.Addr(), uav); err != nil {
				log.Printf("uav client: %v", err)
			}
		}()
	}
	if err := roster.WaitForClients(ctx, numUAVs); err != nil {
		return err
	}
	fmt.Printf("%d UAVs connected\n", numUAVs)

	model := oasis.NewMLP(imagery, 96, rng)
	server := oasis.NewFLServer(
		oasis.FLServerConfig{Rounds: rounds, LearningRate: 0.02, Seed: 11},
		model, roster,
	)
	hist, err := server.Run(ctx)
	if err != nil {
		return err
	}
	for _, r := range hist.Rounds {
		fmt.Printf("round %d: clients=%v loss=%.4f |g|=%.3f\n", r.Round, r.Clients, r.MeanLoss, r.GradNorm)
	}
	if n := len(hist.Rounds); n >= 2 && hist.Rounds[n-1].MeanLoss < hist.Rounds[0].MeanLoss {
		fmt.Println("training progressed under OASIS preprocessing (loss decreased)")
	}
	stopClients()
	wg.Wait()
	return nil
}
