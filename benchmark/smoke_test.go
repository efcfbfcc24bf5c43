package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// tinySize drives every workload end to end in well under a minute.
var tinySize = size{crossDeviceRounds: 2, paperRounds: 2, replicates: 1}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must honour.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmokeEveryWorkloadPrintsEveryMetric runs each workload at a tiny size,
// untraced and traced, and checks that the output names every metric
// BENCHMARK.json declares for that mode, with its unit, both on its own line
// and in the closing JSON object.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, w := range workloads {
		if !slices.Contains(names, w.name) {
			t.Errorf("workload %s is not in BENCHMARK.json", w.name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(names), len(workloads))
	}

	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				res, err := bench(context.Background(), w, config{seed: 1, trace: trace, size: tinySize})
				if err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				if err := writeResult(&out, w.name, res); err != nil {
					t.Fatal(err)
				}
				checkOutput(t, w.name, out.String(), want)
			})
		}
	}
}

func checkOutput(t *testing.T, workload, out string, want []specMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var got struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, out)
	}
	if !got.Correct || got.Attempted < 1 || got.Failed != 0 {
		t.Errorf("result correct=%v attempted=%d failed=%d", got.Correct, got.Attempted, got.Failed)
	}
	if len(got.Metrics) != len(want) {
		t.Errorf("result has %d metrics, BENCHMARK.json declares %d", len(got.Metrics), len(want))
	}
	for _, m := range want {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			t.Errorf("result metric %s = %+v, want unit %s", m.Name, v, m.Unit)
		}
		prefix := workload + " " + m.Name + " "
		found := false
		for _, l := range lines[:len(lines)-1] {
			if fields := strings.Fields(strings.TrimPrefix(l, prefix)); strings.HasPrefix(l, prefix) && len(fields) >= 2 && fields[1] == m.Unit {
				found = true
			}
		}
		if !found {
			t.Errorf("no line %q<value> %s", prefix, m.Unit)
		}
	}
}
