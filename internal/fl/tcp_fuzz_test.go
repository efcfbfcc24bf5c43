package fl

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/oasisfl/oasis/internal/nn"
	"github.com/oasisfl/oasis/internal/tensor"
)

// FuzzTCPWireDecode: the TCP transport's messages arrive from a peer the
// receiver does not trust: the server reads a client's hello and round
// replies, and a client reads the server's round requests. Gob-decoding
// wireHello, wireServerMsg and wireRoundReply from any bytes must yield a
// message or an error, never a panic, and a decoded round's model must go
// through DecodeModel, as a client's HandleRound does first, without a
// panic. The corpus starts from real encoded messages: a hello, a round
// request, the goodbye, an update reply and an error reply. Run beyond it
// with:
//
//	go test -run '^$' -fuzz FuzzTCPWireDecode -fuzztime 10s -fuzzminimizetime 1x ./internal/fl
func FuzzTCPWireDecode(f *testing.F) {
	rng := nn.RandSource(3, 3)
	model := nn.NewSequential(nn.NewLinear("fc1", 4, 3, rng), nn.NewReLU("relu"), nn.NewLinear("fc2", 3, 2, rng))
	spec, err := EncodeModel(model)
	if err != nil {
		f.Fatal(err)
	}
	grads := []*tensor.Tensor{tensor.New(3, 4), tensor.New(3), tensor.New(2, 3), tensor.New(2)}
	for i, g := range grads {
		g.Fill(float64(i) + 0.5)
	}
	for _, msg := range []any{
		wireHello{ClientID: "c0"},
		wireServerMsg{Round: RoundRequest{Round: 2, Model: spec}},
		wireServerMsg{Goodbye: true},
		wireRoundReply{Update: Update{ClientID: "c0", Round: 2, Grads: grads, Loss: 0.7, BatchSize: 4}},
		wireRoundReply{Err: "fl: client c0: model does not fit its batch"},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(msg); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var hello wireHello
		_ = gob.NewDecoder(bytes.NewReader(raw)).Decode(&hello)

		var msg wireServerMsg
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&msg); err == nil && !msg.Goodbye {
			_, _ = DecodeModel(msg.Round.Model)
		}

		var reply wireRoundReply
		_ = gob.NewDecoder(bytes.NewReader(raw)).Decode(&reply)
	})
}
