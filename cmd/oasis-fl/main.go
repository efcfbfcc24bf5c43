// Command oasis-fl runs a federated-learning deployment over the TCP
// transport: one server process and N client processes (or all roles in a
// single process with -demo).
//
// Honest run (-defense takes a defense pipeline spec such as "oasis:MR"):
//
//	oasis-fl -role server -addr :7070 -clients 4 -rounds 20
//	oasis-fl -role client -addr host:7070 -name hospital-1 -defense oasis:MR
//	oasis-fl -role client -addr host:7070 -name hospital-2 -defense "oasis:MR|dpsgd:1,0.1"
//
// Dishonest-server demonstration (the paper's threat model):
//
//	oasis-fl -role server -addr :7070 -clients 2 -attack rtf -out results
//
// Demo mode spawns the server and clients in-process over real TCP sockets:
//
//	oasis-fl -demo -clients 3 -rounds 5 -attack rtf -defense "oasis:MR|prune:0.3"
//
// The round engine is concurrent and its aggregation policy is pluggable:
//
//	oasis-fl -demo -clients 8 -workers 8 -agg trimmed:0.2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	oasis "github.com/oasisfl/oasis"
	"github.com/oasisfl/oasis/internal/imaging"
	"github.com/oasisfl/oasis/internal/obs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "oasis-fl:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		role     = flag.String("role", "", "server | client (empty with -demo)")
		demo     = flag.Bool("demo", false, "run server and clients in one process")
		addr     = flag.String("addr", "127.0.0.1:7070", "server listen / dial address")
		name     = flag.String("name", "client-1", "client name")
		clients  = flag.Int("clients", 2, "clients the server waits for / demo spawns")
		rounds   = flag.Int("rounds", 5, "FL rounds")
		batch    = flag.Int("batch", 8, "client batch size")
		defName  = flag.String("defense", "", "client defense pipeline ('|'-chain of "+strings.Join(oasis.DefenseNames(), " | ")+" specs, e.g. oasis:MR|dpsgd:1,0.1; empty = undefended)")
		attackID = flag.String("attack", "", "dishonest server attack ("+strings.Join(oasis.AttackNames(), " | ")+"; empty = honest)")
		seed     = flag.Uint64("seed", 42, "deterministic seed")
		outDir   = flag.String("out", "", "directory for reconstruction montages (server side)")
		workers  = flag.Int("workers", 0, "max clients trained concurrently per round (0 = NumCPU, 1 = sequential)")
		aggName  = flag.String("agg", "mean", "aggregation policy: mean | median | trimmed[:frac] | normclip[:max]")
		trace    = flag.String("trace", "", "write a JSONL observability trace here (see internal/obs)")
		httpAddr = flag.String("http", "", "serve the obs debug endpoint (metrics + pprof) on this address, e.g. :6060")
	)
	flag.Parse()

	finish, err := obs.EnableCLI("oasis-fl", *trace, *httpAddr)
	if err != nil {
		return err
	}
	defer func() {
		if _, terr := finish(); terr != nil {
			fmt.Fprintln(os.Stderr, "oasis-fl:", terr)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Fail a typo'd -agg before the server starts listening and waiting for
	// clients, not minutes later when the round engine first needs it.
	if (*demo || *role == "server") && *aggName != "" {
		if _, err := oasis.NewAggregator(*aggName); err != nil {
			return err
		}
	}
	// Likewise fail a malformed -defense pipeline spec before any role
	// starts.
	if *defName != "" {
		if _, err := oasis.NewDefensePipeline(*defName, nil); err != nil {
			return err
		}
	}
	opts := driveOptions{
		rounds:   *rounds,
		attackID: *attackID,
		seed:     *seed,
		outDir:   *outDir,
		workers:  *workers,
		aggName:  *aggName,
	}
	switch {
	case *demo:
		return runDemo(ctx, *clients, *batch, *defName, opts)
	case *role == "server":
		return runServer(ctx, *addr, *clients, opts)
	case *role == "client":
		return runClient(ctx, *addr, *name, *batch, *defName, *seed)
	default:
		return fmt.Errorf("pass -demo, or -role server|client")
	}
}

// driveOptions carries the server-side round-engine knobs.
type driveOptions struct {
	rounds   int
	attackID string
	seed     uint64
	outDir   string
	workers  int
	aggName  string
}

// newClient assembles a local client with an optional defense pipeline.
func newClient(name string, batch int, defSpec string, seed uint64) (*oasis.FLLocalClient, error) {
	shard := oasis.NewSynthDataset("site-"+name, 10, 3, 32, 32, 512, seed)
	client := oasis.NewFLClient(name, shard, batch, oasis.NewRand(seed, hash(name)))
	if defSpec != "" {
		// Each client owns its pipeline: stochastic stages (DPSGD, ATS)
		// keep per-client state and must not be shared.
		def, err := oasis.NewDefensePipeline(defSpec, oasis.NewRand(seed^0xdef, hash(name)))
		if err != nil {
			return nil, err
		}
		client.Defense = def
	}
	return client, nil
}

func runClient(ctx context.Context, addr, name string, batch int, defSpec string, seed uint64) error {
	client, err := newClient(name, batch, defSpec, seed)
	if err != nil {
		return err
	}
	fmt.Printf("client %s connecting to %s (defense=%q)\n", name, addr, defSpec)
	return oasis.ServeTCP(ctx, addr, client)
}

func runServer(ctx context.Context, addr string, clients int, opts driveOptions) error {
	roster, err := oasis.ListenTCP(addr)
	if err != nil {
		return err
	}
	defer roster.Close()
	fmt.Printf("server listening on %s, waiting for %d clients…\n", roster.Addr(), clients)
	waitCtx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	if err := roster.WaitForClients(waitCtx, clients); err != nil {
		return err
	}
	return drive(ctx, roster, opts)
}

// drive runs the FL rounds over any roster and reports results.
func drive(ctx context.Context, roster oasis.FLRoster, opts driveOptions) error {
	seed, attackID, outDir := opts.seed, opts.attackID, opts.outDir
	rng := oasis.NewRand(seed, 0xf1)
	ds := oasis.NewSynthDataset("server-arch", 10, 3, 32, 32, 512, seed)
	model := oasis.NewMLP(ds, 64, rng)

	cfg := oasis.FLServerConfig{Rounds: opts.rounds, LearningRate: 0.05, Seed: seed, Workers: opts.workers}
	server := oasis.NewFLServer(cfg, model, roster)
	if opts.aggName != "" {
		agg, err := oasis.NewAggregator(opts.aggName)
		if err != nil {
			return err
		}
		server.Aggregator = agg
		fmt.Printf("aggregation policy: %s\n", agg.Name())
	}

	var dishonest *oasis.DishonestServer
	if attackID != "" {
		// The registry resolves the kind; unknown kinds error with the
		// current list of families, so this never goes stale.
		atk, err := oasis.NewAttack(attackID, ds, 300, 16, rng)
		if err != nil {
			return err
		}
		dishonest, err = oasis.NewAttackServer(atk, rng)
		if err != nil {
			return err
		}
	}
	if dishonest != nil {
		server.Modifier = dishonest
		server.Observer = dishonest
		fmt.Printf("server is DISHONEST: %s\n", dishonest.Name())
	}

	hist, err := server.Run(ctx)
	if err != nil {
		return err
	}
	for _, r := range hist.Rounds {
		fmt.Printf("round %d: %d clients, mean loss %.4f\n", r.Round, len(r.Clients), r.MeanLoss)
	}
	if dishonest != nil {
		total := 0
		for _, cap := range dishonest.Captures() {
			total += len(cap.Reconstructions)
			if outDir != "" && len(cap.Reconstructions) > 0 {
				m, err := imaging.Montage(cap.Reconstructions, 8)
				if err != nil {
					return err
				}
				path := filepath.Join(outDir, fmt.Sprintf("capture_r%d_%s.png", cap.Round, cap.ClientID))
				if err := m.WritePNG(path); err != nil {
					return err
				}
				fmt.Println("wrote", path)
			}
		}
		fmt.Printf("dishonest server reconstructed %d images across %d captures\n",
			total, len(dishonest.Captures()))
	}
	return nil
}

func runDemo(ctx context.Context, clients, batch int, defSpec string, opts driveOptions) error {
	roster, err := oasis.ListenTCP("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer roster.Close()
	fmt.Printf("demo: server on %s with %d in-process TCP clients\n", roster.Addr(), clients)

	clientCtx, stopClients := context.WithCancel(ctx)
	defer stopClients()
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		name := fmt.Sprintf("client-%d", i+1)
		c, err := newClient(name, batch, defSpec, opts.seed+uint64(i))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := oasis.ServeTCP(clientCtx, roster.Addr(), c); err != nil {
				fmt.Fprintf(os.Stderr, "demo client %s: %v\n", name, err)
			}
		}()
	}
	waitCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := roster.WaitForClients(waitCtx, clients); err != nil {
		return err
	}
	if err := drive(ctx, roster, opts); err != nil {
		return err
	}
	stopClients()
	wg.Wait()
	return nil
}

func hash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
