package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the test checks against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// checkEmitted asserts that res carries exactly the named metrics, each
// with its unit, a valid name and a finite value.
func checkEmitted(t *testing.T, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("result not correct: %+v", res)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", m.Name)
		case got.Unit != m.Unit:
			t.Errorf("metric %s: unit %q, want %q", m.Name, got.Unit, m.Unit)
		case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
			t.Errorf("metric %s: value %v not finite", m.Name, got.Value)
		}
	}
	for name := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q does not match %s", name, metricName)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at toy size, untraced
// and traced (twice), and checks the emitted metrics against
// BENCHMARK.json; the simulated counts must repeat exactly.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			o := options{workload: w.Name, seed: 7, size: toy}
			res, err := run(o, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, res, spec.EndToEnd)
			if v := res.Metrics["trials_per_s"].Value; v <= 0 {
				t.Errorf("trials_per_s = %v", v)
			}

			o.trace = true
			var counts [2]map[string]metric
			for i := range counts {
				res, err := run(o, io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				checkEmitted(t, res, spec.PerLayer)
				counts[i] = res.Metrics
			}
			for _, l := range countLayers {
				if l.host {
					continue
				}
				if a, b := counts[0][l.name].Value, counts[1][l.name].Value; a != b {
					t.Errorf("simulated count %s differs between runs: %v vs %v", l.name, a, b)
				}
			}
		})
	}
}

// TestReferenceSeedMatches checks that the committed reference hashes are
// the ones the full-size workloads produce at the default seed. It runs
// the full sizes, so short mode skips it.
func TestReferenceSeedMatches(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	ref, err := loadReference()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames() {
		if ref.Hashes[workloads[name].check] == "" {
			t.Errorf("%s: no reference hash", name)
		}
		res, err := run(options{workload: name, seed: defaultSeed}, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Correct {
			t.Errorf("%s: output differs from reference.json", name)
		}
	}
}
