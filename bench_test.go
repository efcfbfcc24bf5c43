package oasis

// Benchmark harness: one testing.B benchmark per table/figure of the paper,
// running the corresponding experiment at quick scale so `go test -bench=.`
// regenerates every artifact's reduced form. Use `go run ./cmd/oasis-bench`
// for the full-scale grids.
//
// Additional micro-benchmarks cover the load-bearing primitives: the
// malicious-layer gradient computation, attack inversion, OASIS batch
// expansion, and the FL round loop — the pieces whose cost dominates the
// experiments above.

import (
	"context"
	"fmt"
	"testing"

	"github.com/oasisfl/oasis/internal/experiments"
)

// benchExperiment runs a registered experiment once per iteration at quick
// scale.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	spec, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	for i := 0; i < b.N; i++ {
		cfg := experiments.Config{Quick: true, Seed: uint64(42 + i)}
		if _, err := spec.Run(cfg); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkFig2PSNRIllustration(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3RTFGrid(b *testing.B)             { benchExperiment(b, "fig3") }
func BenchmarkFig4CAHGrid(b *testing.B)             { benchExperiment(b, "fig4") }
func BenchmarkFig5RTFTransforms(b *testing.B)       { benchExperiment(b, "fig5") }
func BenchmarkFig6CAHTransforms(b *testing.B)       { benchExperiment(b, "fig6") }
func BenchmarkFig7to12Visual(b *testing.B)          { benchExperiment(b, "visual") }
func BenchmarkFig13LinearInversion(b *testing.B)    { benchExperiment(b, "fig13") }
func BenchmarkFig14ATSComparison(b *testing.B)      { benchExperiment(b, "fig14") }
func BenchmarkTable1ModelAccuracy(b *testing.B)     { benchExperiment(b, "table1") }
func BenchmarkProp1ActivationAnalysis(b *testing.B) { benchExperiment(b, "prop1") }
func BenchmarkDPTradeoffAblation(b *testing.B)      { benchExperiment(b, "dp") }
func BenchmarkPreserveMeanAblation(b *testing.B)    { benchExperiment(b, "pm") }
func BenchmarkRobustAggregation(b *testing.B)       { benchExperiment(b, "robust") }

// BenchmarkClientGradients measures one client-side gradient computation
// against a planted RTF layer (the inner loop of Figures 3 and 5).
func BenchmarkClientGradients(b *testing.B) {
	ds := NewSynthCIFAR100(42)
	rng := NewRand(1, 2)
	atk, err := NewAttack("rtf", ds, 500, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	victim, err := atk.BuildVictim(rng)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := RandomBatch(ds, rng, 8)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = victim.Gradients(batch)
	}
}

// BenchmarkRTFInversion measures the server-side reconstruction step alone.
func BenchmarkRTFInversion(b *testing.B) {
	ds := NewSynthCIFAR100(42)
	rng := NewRand(1, 2)
	atk, err := NewAttack("rtf", ds, 500, 0, rng)
	if err != nil {
		b.Fatal(err)
	}
	victim, err := atk.BuildVictim(rng)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := RandomBatch(ds, rng, 8)
	if err != nil {
		b.Fatal(err)
	}
	gw, gb, _ := victim.Gradients(batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = atk.Reconstruct(gw, gb)
	}
}

// BenchmarkOASISExpansion measures the client-side cost of the defense
// itself (building D′ from D), per policy.
func BenchmarkOASISExpansion(b *testing.B) {
	ds := NewSynthCIFAR100(42)
	rng := NewRand(1, 2)
	batch, err := RandomBatch(ds, rng, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range PolicyNames() {
		def, err := NewDefense(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				def.ApplyBatch(batch)
			}
		})
	}
}

// benchRoster builds n OASIS-defended clients over disjoint shards of a
// shared synthetic dataset.
func benchRoster(b *testing.B, n int) *MemoryRoster {
	b.Helper()
	ds := NewSynthDataset("bench-fl", 10, 3, 32, 32, 128*n, 42)
	rng := NewRand(9, 9)
	shards, err := ShardDataset(ds, n, rng)
	if err != nil {
		b.Fatal(err)
	}
	def, err := NewDefense("MR")
	if err != nil {
		b.Fatal(err)
	}
	roster := NewMemoryRoster()
	for i, shard := range shards {
		c := NewFLClient(fmt.Sprintf("c%d", i), shard, 8, NewRand(9, uint64(i)))
		c.Defense = def
		roster.Add(c)
	}
	return roster
}

// benchModel builds the global MLP used by the FL round benchmarks.
func benchModel() *Model {
	ds := NewSynthDataset("bench-fl", 10, 3, 32, 32, 32, 42)
	return NewMLP(ds, 64, NewRand(9, 9))
}

// BenchmarkFLRound measures one full federated round (dispatch, client
// gradients with OASIS, aggregation) over the in-memory transport.
func BenchmarkFLRound(b *testing.B) {
	roster := benchRoster(b, 4)
	model := benchModel()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		server := NewFLServer(FLServerConfig{Rounds: 1, LearningRate: 0.05, Seed: uint64(i)}, model, roster)
		if _, err := server.Run(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundSequentialVsConcurrent pits the sequential engine
// (Workers=1) against the concurrent worker pool at increasing fan-out over
// a 16-client roster, so the dispatcher's speedup lands in the bench
// trajectory. (The bit-identical-History guarantee itself is asserted by
// TestConcurrentHistoryDeterminism in internal/fl.)
func BenchmarkRoundSequentialVsConcurrent(b *testing.B) {
	const clients = 16
	for _, workers := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			roster := benchRoster(b, clients)
			model := benchModel()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				server := NewFLServer(FLServerConfig{
					Rounds: 1, LearningRate: 0.05, Seed: uint64(i), Workers: workers,
				}, model, roster)
				if _, err := server.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
