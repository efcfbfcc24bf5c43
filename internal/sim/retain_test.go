package sim

import (
	"runtime"
	"runtime/metrics"
	"testing"
)

// liveHeapLog is a progress log that, at every line, forces two GCs and
// records the live heap: the bytes the run still references after the
// round's AfterRound.
type liveHeapLog struct {
	sample   []metrics.Sample
	readings []uint64
}

func (l *liveHeapLog) Write(p []byte) (int, error) {
	runtime.GC()
	runtime.GC()
	metrics.Read(l.sample)
	l.readings = append(l.readings, l.sample[0].Value.Uint64())
	return len(p), nil
}

// TestStrikeRoundsRetainNoImages pins that a run scores each strike round
// where it ends: no raw batch and no reconstruction outlives its round's
// AfterRound. Carrying them to the end of the run grew the live heap by one
// round's batches plus reconstructions a round (about 3.1 MB at the
// paper's shape), so over eight strike rounds the last reading would exceed
// the second by several times the bound below.
func TestStrikeRoundsRetainNoImages(t *testing.T) {
	const (
		rounds, cohort, batch = 10, 4, 4
		imageBytes            = 3 * 32 * 32 * 8
	)
	sc := Scenario{
		Name: "retain", Seed: 5,
		Clients: 16, Rounds: rounds, ClientsPerRound: cohort, BatchSize: batch,
		Dataset: DatasetSpec{Classes: 10, Channels: 3, Height: 32, Width: 32, Samples: 256},
		Attack:  AttackSpec{Kind: "rtf", Neurons: 64, FirstRound: 0, LastRound: rounds - 1},
		// Evaluating every round renders (and memoizes) the test images
		// before the first reading, so the readings differ only by what the
		// strike rounds retain.
		TestSamples: 16, EvalEvery: 1,
	}
	log := &liveHeapLog{sample: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	rep, err := Run(sc, Options{Workers: 1, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if len(log.readings) != rounds {
		t.Fatalf("%d heap readings, want one per round (%d)", len(log.readings), rounds)
	}
	perRound := 0
	for _, rr := range rep.Rounds {
		if !rr.AttackActive || rr.Reconstructions == 0 {
			t.Fatalf("round %d: active %v with %d reconstructions; every round must strike and reconstruct",
				rr.Round, rr.AttackActive, rr.Reconstructions)
		}
		perRound = max(perRound, (rr.Completed*batch+rr.Reconstructions)*imageBytes)
	}
	second, last := log.readings[1], log.readings[rounds-1]
	t.Logf("live heap at rounds 2 and %d: %d B and %d B; one round's images: %d B", rounds, second, last, perRound)
	if last > second && last-second >= uint64(perRound) {
		t.Errorf("live heap grew %d B over %d strike rounds, at least one round's batches and reconstructions (%d B)",
			last-second, rounds-2, perRound)
	}
}
