package dist

import (
	"bytes"
	"encoding/gob"
	"testing"

	"github.com/oasisfl/oasis/internal/experiments"
)

// FuzzWireDecode: every coordinator↔worker message arrives from a peer the
// receiver does not trust, so gob-decoding wireHello, wireCoordMsg and
// wireResult from any bytes must yield a message or an error, never a
// panic. A decoded lease's scenario must normalize to an error or to a
// scenario that validates, and a decoded result must pass or fail the
// grid's CheckResult, as the coordinator does before merging it. The corpus
// starts from real encoded messages: a hello, a lease, the goodbye and a
// result. Run beyond it with:
//
//	go test -run '^$' -fuzz FuzzWireDecode -fuzztime 10s -fuzzminimizetime 1x ./internal/dist
func FuzzWireDecode(f *testing.F) {
	grid, err := experiments.NewSweepGrid(testSweep())
	if err != nil {
		f.Fatal(err)
	}
	job := grid.Job(1)
	lease := wireLease{Job: job, Scenario: grid.JobScenario(1), Quick: grid.Quick, Workers: grid.Workers}
	for _, msg := range []any{
		wireHello{WorkerID: "w0"},
		wireCoordMsg{Lease: &lease},
		wireCoordMsg{Goodbye: true},
		wireResult{Result: experiments.SweepJobResult{
			Cell: job.Cell, Rep: job.Rep, Attack: job.Attack, Defense: job.Defense, Seed: job.Seed,
			Captures: 3, Reconstructions: 5, PSNR: 21.5, SSIM: 0.75, Accuracy: 0.5,
		}},
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

		var msg wireCoordMsg
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&msg); err == nil && msg.Lease != nil {
			if sc, err := msg.Lease.Scenario.Normalize(); err == nil {
				if err := sc.Validate(); err != nil {
					t.Fatalf("Normalize accepted a scenario that does not validate: %v", err)
				}
			}
		}

		var res wireResult
		if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&res); err == nil {
			_ = grid.CheckResult(res.Result)
		}
	})
}
