package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must repeat the tables in metrics.go and stay within the
// driver's limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(blob))
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(blob, &raw); err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	if got := sortedKeys(raw); !reflect.DeepEqual(got, wantKeys) {
		t.Errorf("top-level keys %v, want exactly %v", got, wantKeys)
	}
	var f benchmarkFile
	if err := json.Unmarshal(blob, &f); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(f.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", f.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(f.Workloads, workloads) {
		t.Errorf("workloads differ from metrics.go:\n got %v\nwant %v", f.Workloads, workloads)
	}
	if !reflect.DeepEqual(f.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n got %v\nwant %v", f.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(f.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go:\n got %v\nwant %v", f.PerLayer, perLayer)
	}

	// Per-layer entries carry no bound at all, end-to-end ones must.
	var shapes struct {
		EndToEnd []map[string]any `json:"end_to_end"`
		PerLayer []map[string]any `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &shapes); err != nil {
		t.Fatal(err)
	}
	for _, m := range shapes.EndToEnd {
		if got := sortedKeys(m); !reflect.DeepEqual(got, []string{"better", "bound", "name", "unit"}) {
			t.Errorf("end_to_end entry %v has keys %v", m["name"], got)
		}
	}
	for _, m := range shapes.PerLayer {
		if got := sortedKeys(m); !reflect.DeepEqual(got, []string{"better", "name", "unit"}) {
			t.Errorf("per_layer entry %v has keys %v", m["name"], got)
		}
	}
}

func TestTablesRespectTheDriversLimits(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the driver's naming rule", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, want 1..200", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s, unit s, better lower")
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q breaks the driver's rule", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Bound != 0 {
			t.Errorf("%s: per-layer metrics carry no bound", m.Name)
		}
	}
}
