package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metrics with the same units,
// directions and bounds.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from the program's:\n%+v\n%+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's:\n%+v\n%+v", b.PerLayer, perLayer)
	}
}

// TestEveryMetricIsComputed guards against a metric that is declared but
// never derived, which would silently report 0.
func TestEveryMetricIsComputed(t *testing.T) {
	e2e, _ := endToEndValues(&e2eRun{wall: 1})
	for _, tc := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, e2e}, {perLayer, layerValues(&traceRun{})}} {
		if len(tc.vals) != len(tc.defs) {
			t.Errorf("%d metrics computed, %d declared", len(tc.vals), len(tc.defs))
		}
		for _, d := range tc.defs {
			if _, ok := tc.vals[d.Name]; !ok {
				t.Errorf("metric %s is declared but not computed", d.Name)
			}
		}
	}
}
