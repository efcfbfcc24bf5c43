package fl

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// specParamBits is every parameter value of a spec's linear layers as raw
// bits, in layer order.
func specParamBits(spec ModelSpec) []uint64 {
	var out []uint64
	for _, l := range spec.Layers {
		for _, p := range []*tensor.Tensor{l.W, l.B} {
			if p == nil {
				continue
			}
			for _, v := range p.Data() {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// TestSharedSpecUnchangedByClients: a decoded Linear adopts the dispatched
// spec's tensors, which every client of a round shares. Single-step and
// 3-step clients run concurrently on one spec, and none of them may write
// it: a multi-step client trains on copies and keeps the spec as w₀.
func TestSharedSpecUnchangedByClients(t *testing.T) {
	shards := testShards(t, 4)
	roster := NewMemoryRoster()
	for i, s := range shards {
		c := NewLocalClient(fmt.Sprintf("c%d", i), s, 8, nn.RandSource(40, uint64(i)))
		if i%2 == 1 {
			c.LocalSteps, c.LocalLR = 3, 0.1
		}
		roster.Add(c)
	}
	spec, err := EncodeModel(testModel(nil))
	if err != nil {
		t.Fatal(err)
	}
	before := specParamBits(spec)
	server := NewServer(ServerConfig{Rounds: 2, LearningRate: 0.1, Seed: 4, Workers: 2}, testModel(nil), roster)
	server.Modifier = &recordingModifier{spec: spec}
	if _, err := server.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	after := specParamBits(spec)
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("dispatched spec parameter %d changed from %x to %x", i, before[i], after[i])
		}
	}
}

// TestHandleRoundRejectsModelThatDoesNotFitBatch: DecodeModel cannot know
// the batch a model will see, so a model whose shapes do not fit the
// client's batch must come back from HandleRound as an error naming the
// client, not as a panic that kills the client or an in-process server.
func TestHandleRoundRejectsModelThatDoesNotFitBatch(t *testing.T) {
	shards := testShards(t, 1) // 1×8×8 images: flat batches are [B, 64]
	linear := func(name string, out, in int) LayerSpec {
		return LayerSpec{Kind: "linear", Name: name, W: tensor.New(out, in), B: tensor.New(out)}
	}
	cases := []struct {
		name string
		spec ModelSpec
	}{
		{"first layer narrower than the batch", ModelSpec{InputKind: "flat", Layers: []LayerSpec{linear("l", 3, 7)}}},
		{"linear out and next in disagree", ModelSpec{InputKind: "flat", Layers: []LayerSpec{linear("l0", 5, 64), linear("l1", 3, 7)}}},
		{"conv channels differ from the images", ModelSpec{InputKind: "image", Layers: []LayerSpec{{
			Kind: "conv", Name: "c", InC: 3, OutC: 2, K: 3, Stride: 1, Pad: 1,
			W: tensor.New(2, 3, 3, 3), B: tensor.New(2),
		}}}},
		{"conv kernel wider than the padded images", ModelSpec{InputKind: "image", Layers: []LayerSpec{{
			Kind: "conv", Name: "c", InC: 1, OutC: 2, K: 12, Stride: 1, Pad: 1,
			W: tensor.New(2, 1, 12, 12), B: tensor.New(2),
		}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			client := NewLocalClient("victim", shards[0], 4, nn.RandSource(41, 1))
			_, err := client.HandleRound(context.Background(), RoundRequest{Model: tc.spec})
			if err == nil || !strings.Contains(err.Error(), "victim") {
				t.Fatalf("err = %v, want an error naming client victim", err)
			}
		})
	}
}
