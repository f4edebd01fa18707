package main

import (
	"encoding/json"
	"os"
	"testing"
)

type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

// TestBenchmarkJSONListsEmittedMetrics keeps BENCHMARK.json and the
// metrics the benchmark prints in lockstep.
func TestBenchmarkJSONListsEmittedMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}

	var e2e report
	e2e.addEndToEnd(endToEnd{})
	if len(e2e.metrics) != len(bf.EndToEnd) {
		t.Fatalf("benchmark prints %d end-to-end metrics, BENCHMARK.json lists %d", len(e2e.metrics), len(bf.EndToEnd))
	}
	for i, m := range e2e.metrics {
		if b := bf.EndToEnd[i]; b.Name != m.Name || b.Unit != m.Unit {
			t.Errorf("end_to_end[%d] = %s (%s), benchmark prints %s (%s)", i, b.Name, b.Unit, m.Name, m.Unit)
		}
	}

	lm := layerMetrics()
	if len(lm) != len(bf.PerLayer) {
		t.Fatalf("benchmark prints %d per-layer metrics, BENCHMARK.json lists %d", len(lm), len(bf.PerLayer))
	}
	for i, m := range lm {
		if b := bf.PerLayer[i]; b.Name != m.name || b.Unit != m.unit || b.Better != m.better {
			t.Errorf("per_layer[%d] = %s (%s, %s), benchmark prints %s (%s, %s)",
				i, b.Name, b.Unit, b.Better, m.name, m.unit, m.better)
		}
	}
}
