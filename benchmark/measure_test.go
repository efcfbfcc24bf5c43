package main

import (
	"strings"
	"testing"
)

func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{115, 90},
		{234, 90},
		{999, 90},
		{1000, 99},
		{10000, 99.9},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
	if got := samplesFor(90); got != 100 {
		t.Errorf("samplesFor(90) = %d, want 100", got)
	}
	if got := samplesFor(50); got != 20 {
		t.Errorf("samplesFor(50) = %d, want 20", got)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{7, 3, 10, 1, 9, 2, 8, 4, 6, 5}
	for _, tc := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(p%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestProgressClockCountsOnlyPrefixedLines(t *testing.T) {
	clk := newProgressClock("sim ")
	clk.begin()
	for _, line := range []string{"sim a round 1/3\n", "dist: worker w connected\n", "sim a round 2/3\n", "sim a round 3/3\n"} {
		if n, err := clk.Write([]byte(line)); n != len(line) || err != nil {
			t.Fatalf("Write(%q) = %d, %v", line, n, err)
		}
	}
	s, err := clk.finish(outcome{ops: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.steps) != 2 || s.out.ops != 3 || s.cpu < s.setup {
		t.Errorf("sample = %+v, want 2 steps, 3 ops and cpu ≥ setup", s)
	}

	silent := newProgressClock("sweep ")
	silent.begin()
	if _, err := silent.finish(outcome{}); err == nil || !strings.Contains(err.Error(), "no progress line") {
		t.Errorf("finish without progress lines: err = %v", err)
	}
}
