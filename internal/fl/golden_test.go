package fl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/oasisfl/oasis/internal/data"
	"github.com/oasisfl/oasis/internal/nn"
)

// memoryGoldenPath pins the History of a MemoryRoster run. Regenerate (only
// when a History-schema change is intentional) with:
//
//	OASIS_REGEN_GOLDEN=1 go test ./internal/fl -run TestMemoryRosterGolden
var memoryGoldenPath = filepath.Join("testdata", "golden-memory-roster-history.json")

// sizedFailingClient fails every round but reports a large shard, so the
// size-weighted sampler selects it often.
type sizedFailingClient struct {
	failingClient
	samples int
}

func (c *sizedFailingClient) NumSamples() int { return c.samples }

// memoryGoldenRun drives a MemoryRoster population with shards of unequal
// size plus one client that fails every round, tolerated by the server.
func memoryGoldenRun(t *testing.T, sampler ClientSampler, workers int) History {
	t.Helper()
	sizes := []int{16, 72, 24, 40, 8, 56}
	total := 0
	for _, s := range sizes {
		total += s
	}
	ds := data.NewSynthCustom("flgolden", 4, 1, 8, 8, total, 13)
	parts, err := data.Split(ds.Len(), nn.RandSource(13, 1), sizes...)
	if err != nil {
		t.Fatal(err)
	}
	roster := NewMemoryRoster()
	for i, idx := range parts {
		shard := data.NewSubset(ds, idx, fmt.Sprintf("golden-shard-%d", i))
		roster.Add(NewLocalClient(fmt.Sprintf("c%d", i), shard, 8, nn.RandSource(13, uint64(10+i))))
		if i == 2 {
			roster.Add(&sizedFailingClient{failingClient{id: "broken"}, 48})
		}
	}
	server := NewServer(ServerConfig{
		Rounds: 6, ClientsPerRound: 4, LearningRate: 0.05, Seed: 17,
		Workers: workers, TolerateFailures: true,
	}, testModel(nil), roster)
	server.Sampler = sampler
	hist, err := server.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return hist
}

// TestMemoryRosterGolden pins MemoryRoster selection, failure accounting and
// training byte for byte, for both built-in samplers and for sequential and
// concurrent dispatch. Float fields round-trip exactly through JSON, so equal
// bytes mean bit-identical histories.
func TestMemoryRosterGolden(t *testing.T) {
	render := func(workers int) []byte {
		runs := map[string]History{}
		for _, s := range []ClientSampler{UniformSampler{}, SizeWeightedSampler{}} {
			runs[s.Name()] = memoryGoldenRun(t, s, workers)
		}
		raw, err := json.MarshalIndent(runs, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return append(raw, '\n')
	}
	if os.Getenv("OASIS_REGEN_GOLDEN") != "" {
		raw := render(1)
		if err := os.WriteFile(memoryGoldenPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d bytes)", memoryGoldenPath, len(raw))
		return
	}
	golden, err := os.ReadFile(memoryGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		if raw := render(workers); !bytes.Equal(raw, golden) {
			t.Errorf("Workers=%d history diverged from %s:\n got: %s\nwant: %s", workers, memoryGoldenPath, raw, golden)
		}
	}
}
