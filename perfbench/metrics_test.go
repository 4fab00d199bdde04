package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkCatalogue(raw, workloadNames()); err != nil {
		t.Fatal(err)
	}
}

// manifestJSON renders a BENCHMARK.json-shaped document from the
// harness's own catalogue, with edit applied to the metric lists first.
func manifestJSON(t *testing.T, edit func(e2e, pl *[]map[string]string)) []byte {
	t.Helper()
	var e2e, pl []map[string]string
	for _, d := range endToEnd {
		e2e = append(e2e, map[string]string{"name": d.Name, "unit": d.Unit})
	}
	for _, d := range perLayer {
		pl = append(pl, map[string]string{"name": d.Name, "unit": d.Unit})
	}
	edit(&e2e, &pl)
	var wl []map[string]string
	for _, n := range workloadNames() {
		wl = append(wl, map[string]string{"name": n})
	}
	b, err := json.Marshal(map[string]any{"workloads": wl, "end_to_end": e2e, "per_layer": pl})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCatalogueCheckRejectsDrift(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(e2e, pl *[]map[string]string)
		want string
	}{
		{"unchanged", func(e2e, pl *[]map[string]string) {}, ""},
		{"missing", func(e2e, pl *[]map[string]string) { *e2e = (*e2e)[1:] }, "declares"},
		{"renamed", func(e2e, pl *[]map[string]string) { (*pl)[0]["name"] = "core.step_us.p51" }, "lacks"},
		{"unit", func(e2e, pl *[]map[string]string) { (*e2e)[0]["unit"] = "ms" }, "unit"},
	} {
		err := checkCatalogue(manifestJSON(t, c.edit), workloadNames())
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if err := checkCatalogue(manifestJSON(t, func(e2e, pl *[]map[string]string) {}), []string{"serve-mix"}); err == nil {
		t.Error("a workload list that differs from BENCHMARK.json passed")
	}
}

func TestMetricNamesAndUnitsAreWellFormed(t *testing.T) {
	for _, bad := range []string{"", ".x", "has space", strings.Repeat("a", 65), "ünits"} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"setup_s", "core.step_us.p50", "go.gc_cycles", strings.Repeat("a", 64)} {
		if !nameRE.MatchString(good) {
			t.Errorf("name %q rejected", good)
		}
	}
	for _, bad := range []string{"", "seventeen-letters", "a b"} {
		if unitRE.MatchString(bad) {
			t.Errorf("unit %q accepted", bad)
		}
	}
	for _, good := range []string{"s", "1/s", "flits/node/cycle", "MB/s", "%"} {
		if !unitRE.MatchString(good) {
			t.Errorf("unit %q rejected", good)
		}
	}
}

func TestBuildMetricsNeedsEveryMetric(t *testing.T) {
	values := map[string]float64{}
	for _, d := range endToEnd {
		values[d.Name] = 1.5
	}
	m, err := buildMetrics(endToEnd, values)
	if err != nil {
		t.Fatal(err)
	}
	if got := m["run_s"]; got.Value != 1.5 || got.Unit != "s" {
		t.Errorf("run_s = %+v", got)
	}
	delete(values, "run_s")
	if _, err := buildMetrics(endToEnd, values); err == nil {
		t.Error("a missing metric passed")
	}
}

func TestMixSeedsAreDistinctAndJSONSafe(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := int64(-2); seed < 50; seed++ {
		for stream := uint64(0); stream < 4; stream++ {
			v := mix(seed, stream)
			if v == 0 || v >= 1<<53 {
				t.Fatalf("mix(%d, %d) = %d, outside [1, 2^53)", seed, stream, v)
			}
			if seen[v] {
				t.Fatalf("mix(%d, %d) = %d repeats", seed, stream, v)
			}
			seen[v] = true
		}
	}
}
