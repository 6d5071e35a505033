package main

import (
	"encoding/json"
	"os"
	"testing"
)

// TestBenchmarkJSONListsLayers checks that BENCHMARK.json names exactly the
// per-layer metrics of the layers table, in order, with the same units and
// directions, and that every end-to-end metric is one the run reports.
func TestBenchmarkJSONListsLayers(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the layers table %d", len(bench.PerLayer), len(layers))
	}
	for i, l := range layers {
		got := bench.PerLayer[i]
		if got.Name != l.name || got.Unit != l.unit || got.Better != l.better {
			t.Errorf("per_layer[%d] = %+v, want %s %s %s", i, got, l.name, l.unit, l.better)
		}
	}
	for _, w := range bench.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
	for _, m := range bench.EndToEnd {
		if u, ok := endToEndUnits[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s (%s) is not reported with that unit", m.Name, m.Unit)
		}
	}
}

// TestFreshBodiesAreNew checks that fresh-template never repeats a body and
// that its seed alone fixes the sequence.
func TestFreshBodiesAreNew(t *testing.T) {
	a, b := newFreshTemplate(7), newFreshTemplate(7)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		x, y := a.next(), b.next()
		if x.gen != y.gen {
			t.Fatalf("op %d differs between two sources with one seed", i)
		}
		if seen[x.gen.Source] {
			t.Fatalf("op %d repeats a body", i)
		}
		seen[x.gen.Source] = true
	}
}

// TestRenameMixMissesTheResultCache checks that a generate request comes
// back only after more distinct requests than the daemon's 256-entry result
// cache holds.
func TestRenameMixMissesTheResultCache(t *testing.T) {
	src := newRenameMix(3)
	last := map[refKey]int{}
	gens := 0
	for i := 0; i < 5000; i++ {
		o := src.next()
		if o.kind != opGenerate {
			continue
		}
		k := resolve(o.gen)
		if j, ok := last[k]; ok && gens-j <= 256 {
			t.Fatalf("request %s repeats after %d generates", k.name, gens-j)
		}
		last[k] = gens
		gens++
	}
}
