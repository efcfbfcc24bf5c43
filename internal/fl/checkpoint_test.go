package fl

import (
	"bytes"
	"compress/gzip"
	"encoding/gob"
	"os"
	"path/filepath"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
)

func TestSaveLoadModelRoundTrip(t *testing.T) {
	rng := nn.RandSource(60, 1)
	net := nn.NewResNetLite(nn.ResNetLiteConfig{InChannels: 3, NumClasses: 5, Width: 4}, rng)
	// Move batch-norm state off defaults so the checkpoint carries it.
	net.Forward(randInput(rng, 2, 3, 8, 8), true)

	path := filepath.Join(t.TempDir(), "ckpt", "model.gob.gz")
	if err := SaveModel(net, path); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	x := randInput(rng, 2, 3, 8, 8)
	if !net.Forward(x, false).EqualApprox(back.Forward(x, false), 1e-12) {
		t.Error("restored model differs from saved one")
	}
}

func TestCheckpointResumesTraining(t *testing.T) {
	// Save → load → keep training: gradients must flow through the
	// restored network identically.
	rng := nn.RandSource(61, 1)
	net := nn.NewSequential(
		nn.NewLinear("fc1", 8, 12, rng),
		nn.NewReLU("r"),
		nn.NewLinear("fc2", 12, 3, rng),
	)
	spec, err := EncodeModel(net)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteModel(&buf, spec); err != nil {
		t.Fatal(err)
	}
	spec, err = ReadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeModel(spec)
	if err != nil {
		t.Fatal(err)
	}
	x := randInput(rng, 4, 8)
	labels := []int{0, 1, 2, 0}
	run := func(m *nn.Sequential) float64 {
		m.ZeroGrad()
		out := m.Forward(x, true)
		loss, g := nn.SoftmaxCrossEntropy(out, labels)
		m.Backward(g)
		return loss
	}
	if l1, l2 := run(net), run(back); l1 != l2 {
		t.Errorf("restored model loss %g != %g", l2, l1)
	}
	g1, g2 := net.Gradients(), back.Gradients()
	for i := range g1 {
		if !g1[i].EqualApprox(g2[i], 1e-12) {
			t.Fatalf("gradient %d differs after checkpoint round trip", i)
		}
	}
}

func TestLoadModelRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	// Not gzip at all.
	plain := filepath.Join(dir, "plain")
	if err := os.WriteFile(plain, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(plain); err == nil {
		t.Error("plain-text file loaded as checkpoint")
	}
	// Valid gzip, wrong contents.
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode("something else"); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	wrong := filepath.Join(dir, "wrong")
	if err := os.WriteFile(wrong, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(wrong); err == nil {
		t.Error("non-checkpoint gob loaded")
	}
	// Wrong magic.
	buf.Reset()
	zw = gzip.NewWriter(&buf)
	if err := gob.NewEncoder(zw).Encode(checkpointFile{Magic: "other"}); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	if _, err := ReadModel(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("wrong magic accepted")
	}
	// Missing file.
	if _, err := LoadModel(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing file loaded")
	}
}
