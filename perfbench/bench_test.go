package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which the
// benchmark's users read, in step with what the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Fatalf("workload %d: BENCHMARK.json %q, program %q", i, b.Workloads[i].Name, w.name)
		}
	}
	if !strings.Contains(b.Workloads[0].Why, "<= 0.1%") || nicamMaxRelErr != 0.001 {
		t.Fatal("nicam-lossy's error bound in BENCHMARK.json and in the program differ")
	}
	var layers []metricDef
	for _, m := range perLayer {
		layers = append(layers, m.metricDef)
	}
	for _, c := range []struct {
		what string
		json []struct{ Name, Unit, Better string }
		prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, layers}} {
		if len(c.json) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.what, len(c.json), len(c.prog))
		}
		for i, m := range c.prog {
			if j := c.json[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Fatalf("%s %d: BENCHMARK.json %+v, program %+v", c.what, i, j, m)
			}
		}
	}
}

func TestSummariseTail(t *testing.T) {
	lat := make([]time.Duration, 30)
	for i := range lat {
		lat[i] = time.Duration(30-i) * time.Millisecond
	}
	d := summarise(lat)
	if d.n != 30 || d.p50 != 15.5 || d.tail != 20 || d.tailPct != 100*20.0/30 {
		t.Fatalf("got %+v", d)
	}
	if d := summarise(lat[:5]); d.tail != 30 || d.tailPct != 100 {
		t.Fatalf("short sample: got %+v", d)
	}
}
