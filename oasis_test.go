package oasis

import (
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestPublicAPIQuickstart exercises the exact flow the README advertises.
func TestPublicAPIQuickstart(t *testing.T) {
	ds := NewSynthCIFAR100(42)
	rng := NewRand(1, 2)
	batch, err := RandomBatch(ds, rng, 8)
	if err != nil {
		t.Fatal(err)
	}
	atk, err := NewAttack("rtf", ds, 400, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewDefense("MR")
	if err != nil {
		t.Fatal(err)
	}
	defended := def.ApplyBatch(batch)
	evRaw, _, err := atk.Run(batch, batch.Images, rng)
	if err != nil {
		t.Fatal(err)
	}
	evDef, _, err := atk.Run(defended, batch.Images, rng)
	if err != nil {
		t.Fatal(err)
	}
	if evRaw.MeanPSNR() < 100 {
		t.Errorf("undefended mean PSNR %.1f", evRaw.MeanPSNR())
	}
	if evDef.MeanPSNR() > 40 {
		t.Errorf("defended mean PSNR %.1f", evDef.MeanPSNR())
	}
}

func TestNewDefenseValidation(t *testing.T) {
	for _, label := range PolicyNames() {
		def, err := NewDefense(label)
		if err != nil {
			t.Errorf("NewDefense(%q): %v", label, err)
			continue
		}
		if def.Name() != label {
			t.Errorf("defense name %q != %q", def.Name(), label)
		}
	}
	if _, err := NewDefense("WO"); err == nil {
		t.Error("NewDefense(WO) should direct users to a nil defense")
	}
	if _, err := NewDefense("bogus"); err == nil {
		t.Error("NewDefense(bogus) accepted")
	}
}

func TestExperimentRegistryAccessible(t *testing.T) {
	ids := Experiments()
	if len(ids) != 15 {
		t.Errorf("%d experiments exposed, want 15", len(ids))
	}
	if _, err := RunExperiment("definitely-not-real", ExperimentConfig{Quick: true}); err == nil {
		t.Error("unknown experiment accepted")
	}
	res, err := RunExperiment("prop1", ExperimentConfig{Quick: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.String(), "Proposition-1") {
		t.Error("prop1 output missing its table")
	}
}

func TestPSNRFacade(t *testing.T) {
	ds := NewSynthImageNet(1)
	im, _ := ds.Sample(0)
	if got := PSNR(im, im); got != 150 {
		t.Errorf("PSNR(identical) = %g", got)
	}
}

func TestAnalyzeProp1Facade(t *testing.T) {
	ds := NewSynthCIFAR100(5)
	rng := NewRand(5, 5)
	atk, err := NewAttack("rtf", ds, 100, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := RandomBatch(ds, rng, 4)
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewDefense("MR")
	if err != nil {
		t.Fatal(err)
	}
	w, b := atk.Layer()
	rep, err := AnalyzeProp1(def, batch, w, b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SameSetFraction != 1 {
		t.Errorf("same-set fraction %g, want 1 for MR vs RTF", rep.SameSetFraction)
	}
}

// TestFLIntegrationWithDishonestServer runs the full public-API pipeline:
// shards, OASIS clients, a CAH dishonest server, in-memory transport.
func TestFLIntegrationWithDishonestServer(t *testing.T) {
	ds := NewSynthDataset("fl-int", 6, 3, 16, 16, 256, 9)
	rng := NewRand(9, 1)
	shards, err := ShardDataset(ds, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	def, err := NewDefense("MR+SH")
	if err != nil {
		t.Fatal(err)
	}
	roster := NewMemoryRoster()
	for i, shard := range shards {
		c := NewFLClient(fmt.Sprintf("c%d", i), shard, 6, NewRand(9, uint64(i+2)))
		c.Defense = def
		roster.Add(c)
	}
	atk, err := NewAttack("cah", ds, 200, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	dishonest, err := NewAttackServer(atk, rng)
	if err != nil {
		t.Fatal(err)
	}
	server := NewFLServer(FLServerConfig{Rounds: 2, LearningRate: 0.05, Seed: 9}, NewMLP(ds, 32, rng), roster)
	server.Modifier = dishonest
	server.Observer = dishonest
	if _, err := server.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	caps := dishonest.Captures()
	if len(caps) != 6 { // 3 clients × 2 rounds
		t.Fatalf("%d captures, want 6", len(caps))
	}
	for _, cap := range caps {
		if cap.ClientID == "" {
			t.Error("capture missing client id")
		}
	}
}

func TestTrainCentralizedFacade(t *testing.T) {
	ds := NewSynthDataset("train-api", 4, 3, 12, 12, 256, 3)
	rng := NewRand(3, 3)
	shards, err := ShardDataset(ds, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewClassifier(ds, 4, rng)
	acc, err := TrainCentralized(model, shards[0], shards[1], nil, 3, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 0.25 { // must beat random (4 classes)
		t.Errorf("accuracy %.2f not above chance", acc)
	}
}

// TestTrainCentralizedMLP trains and evaluates a flat-input model: a Linear
// first layer must be fed [B, C·H·W] rows, as in a federated round.
func TestTrainCentralizedMLP(t *testing.T) {
	ds := NewSynthDataset("train-mlp", 4, 1, 8, 8, 256, 3)
	rng := NewRand(4, 4)
	shards, err := ShardDataset(ds, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := NewMLP(ds, 32, rng)
	before, err := EvaluateAccuracy(model, shards[1], 16)
	if err != nil {
		t.Fatal(err)
	}
	if before < 0 || before > 1 {
		t.Errorf("untrained accuracy %.2f outside [0, 1]", before)
	}
	def, err := NewDefense("HFlip")
	if err != nil {
		t.Fatal(err)
	}
	acc, err := TrainCentralized(model, shards[0], shards[1], def, 20, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc <= 0.25 { // must beat random (4 classes)
		t.Errorf("accuracy %.2f not above chance", acc)
	}
}

func TestDefensePipelineFacade(t *testing.T) {
	pl, err := NewDefensePipeline("oasis:MR|dpsgd:1,0.1", NewRand(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if want := "oasis(MR)|dpsgd(σ=0.1)"; pl.Name() != want {
		t.Errorf("pipeline name %q, want %q", pl.Name(), want)
	}
	if n := len(pl.StageNames()); n != 2 {
		t.Errorf("%d stages, want 2", n)
	}
	if _, err := NewDefensePipeline("oasis:MR|tinfoil", nil); err == nil {
		t.Error("malformed pipeline accepted")
	}

	names := DefenseNames()
	for _, want := range []string{"oasis", "dpsgd", "prune", "ats"} {
		found := false
		for _, n := range names {
			found = found || n == want
		}
		if !found {
			t.Errorf("DefenseNames() %v missing built-in %q", names, want)
		}
	}

	// The pipeline is a federated client's one defense, both stages under
	// the pipeline's label.
	ds := NewSynthDataset("def-api", 4, 1, 8, 8, 64, 9)
	client := NewFLClient("c0", ds, 4, NewRand(9, 1))
	client.Defense = pl
	if client.Defense.Name() != pl.Name() {
		t.Error("the client's defense does not carry the pipeline label")
	}

	// Custom registration flows through the public surface into pipelines.
	if err := RegisterDefense("facade-test", func(arg string, cfg DefenseConfig) (ClientDefense, error) {
		return ComposeDefenses(), nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewDefensePipeline("facade-test|prune:0.5", nil); err != nil {
		t.Errorf("registered custom kind rejected in a pipeline: %v", err)
	}
	if err := RegisterDefense("facade-test", nil); err == nil {
		t.Error("duplicate/nil registration accepted")
	}
}

func TestUniqueLabelBatchFacade(t *testing.T) {
	ds := NewSynthCIFAR100(6)
	rng := NewRand(6, 6)
	b, err := UniqueLabelBatch(ds, rng, 16)
	if err != nil {
		t.Fatal(err)
	}
	atk := NewLinearAttack(ds)
	ev, recons, err := atk.Run(b, b.Images, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(recons) != 16 {
		t.Errorf("%d linear reconstructions, want 16", len(recons))
	}
	if ev.MeanPSNR() < 20 {
		t.Errorf("undefended linear inversion mean PSNR %.1f", ev.MeanPSNR())
	}
}

func TestModelCheckpointFacade(t *testing.T) {
	ds := NewSynthDataset("ckpt-api", 4, 3, 8, 8, 64, 2)
	rng := NewRand(2, 2)
	model := NewClassifier(ds, 4, rng)
	path := t.TempDir() + "/model.ckpt"
	if err := SaveModel(model, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumParams() != model.NumParams() {
		t.Errorf("restored model has %d params, want %d", back.NumParams(), model.NumParams())
	}
}
