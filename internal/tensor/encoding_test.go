package tensor

import (
	"bytes"
	"encoding/gob"
	"math/bits"
	rand "math/rand/v2"
	"testing"
)

func TestGobRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	orig := New(3, 4, 5)
	orig.FillRandn(rng, 1)

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(orig); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var back Tensor
	if err := gob.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !orig.EqualApprox(&back, 0) {
		t.Error("gob round trip lost data")
	}
	if back.Dims() != 3 || back.Dim(2) != 5 {
		t.Errorf("gob round trip lost shape: %v", back.Shape())
	}
}

// overflowShape is two dimensions whose product wraps int to exactly 0, so a
// decoder that multiplies without checking matches it to empty data.
var overflowShape = []int{1 << (bits.UintSize / 2), 1 << (bits.UintSize / 2)}

func gobWire(tb testing.TB, w wireTensor) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(w); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func TestGobDecodeRejectsCorruptShape(t *testing.T) {
	for _, w := range []wireTensor{
		{Shape: []int{2, 2}, Data: []float64{1}},
		{Shape: []int{-1}},
		{Shape: overflowShape},
	} {
		var back Tensor
		if err := back.GobDecode(gobWire(t, w)); err == nil {
			t.Errorf("decode of shape %v with %d elements succeeded", w.Shape, len(w.Data))
		}
	}
}

// FuzzTensorGobDecode: GobDecode never panics, and every tensor it accepts
// holds exactly as many elements as its shape says and survives Clone and
// Reshape.
func FuzzTensorGobDecode(f *testing.F) {
	f.Add(gobWire(f, wireTensor{Shape: []int{2, 3}, Data: make([]float64, 6)}))
	f.Add(gobWire(f, wireTensor{Shape: overflowShape}))
	f.Add(gobWire(f, wireTensor{Shape: []int{2, 2}, Data: []float64{1}}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, p []byte) {
		var x Tensor
		if err := x.GobDecode(p); err != nil {
			return
		}
		n := 1
		for _, d := range x.shape {
			n *= d
		}
		if n != len(x.data) {
			t.Fatalf("accepted shape %v with %d elements", x.shape, len(x.data))
		}
		if c := x.Clone(); !c.SameShape(&x) {
			t.Fatalf("clone of %v lost its shape", x.shape)
		}
		if _, err := x.Reshape(len(x.data)); err != nil {
			t.Fatalf("flattening %v: %v", x.shape, err)
		}
	})
}

func TestGobInsideSlice(t *testing.T) {
	// The FL transport ships []*Tensor payloads; make sure pointers inside
	// composite values round-trip.
	rng := rand.New(rand.NewPCG(9, 9))
	in := []*Tensor{New(2, 2), New(3)}
	in[0].FillRandn(rng, 1)
	in[1].FillRandn(rng, 1)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	var out []*Tensor
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !out[0].EqualApprox(in[0], 0) || !out[1].EqualApprox(in[1], 0) {
		t.Error("slice-of-tensor round trip failed")
	}
}
