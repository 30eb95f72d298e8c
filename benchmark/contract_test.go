package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// declared is BENCHMARK.json at the root of the repository.
type declared struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// checkDeclared fails unless got holds exactly the metrics BENCHMARK.json
// declares in the given section, with the declared units.
func checkDeclared(t *testing.T, section string, got map[string]metric) {
	t.Helper()
	d := readDeclared(t)
	want := d.EndToEnd
	if section == "per_layer" {
		want = d.PerLayer
	}
	seen := make(map[string]bool)
	for _, m := range want {
		seen[m.Name] = true
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s metric %s is declared but was not reported", section, m.Name)
		case g.Unit != m.Unit:
			t.Errorf("%s metric %s reported in %q, declared in %q", section, m.Name, g.Unit, m.Unit)
		}
	}
	for name := range got {
		if !seen[name] {
			t.Errorf("%s metric %s was reported but is not declared", section, name)
		}
	}
}

// BENCHMARK.json must describe this program: same workloads and reasons, same
// run length, and metric declarations inside the limits its reader enforces.
func TestDeclarationMatchesTheProgram(t *testing.T) {
	d := readDeclared(t)
	if d.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the program's default is %d", d.RunSeconds, defaultSeconds)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the program", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.name || d.Workloads[i].Why != w.why {
			t.Errorf("workload %d: declared %q (%q), program has %q (%q)", i, d.Workloads[i].Name, d.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	used := make(map[string]bool)
	check := func(section string, ms []declaredMetric, bounded bool) {
		for _, m := range ms {
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s %q (%q): name or unit outside the allowed characters", section, m.Name, m.Unit)
			}
			if used[m.Name] {
				t.Errorf("%s %q: name used twice", section, m.Name)
			}
			used[m.Name] = true
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %q: better is %q", section, m.Name, m.Better)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s %q: bound present = %v, want %v", section, m.Name, m.Bound != nil, bounded)
			}
			if m.Bound != nil && (*m.Bound <= 0 || *m.Bound > 0.25) {
				t.Errorf("%s %q: bound %v outside (0, 0.25]", section, m.Name, *m.Bound)
			}
		}
	}
	check("end_to_end", d.EndToEnd, true)
	check("per_layer", d.PerLayer, false)
	if len(d.EndToEnd) < 1 || len(d.EndToEnd) > 16 || len(d.PerLayer) < 1 || len(d.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics: outside 1..16 and 1..128", len(d.EndToEnd), len(d.PerLayer))
	}
	setup := false
	for _, m := range d.EndToEnd {
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s in s, lower is better")
	}
}
