package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics a user of the system sees, measured with tracing
// off. Host time unless the name says cycles or flits (simulated).
// error_rate is printed on its own line and carried by the result's
// attempted/failed counts instead: it is 0 on every passing run, so it
// cannot be gated as a share of its median.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"msg_latency_p50_cycles", "cycles"},
	{"msg_latency_p99_cycles", "cycles"},
	{"accepted_flits_per_node_cycle", "flits/node/cycle"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p99_ms", "ms"},
	{"jobs_per_s", "1/s"},
}

// perLayer are the traced run's metrics, one group per module. A layer a
// workload does not exercise reports 0 and is listed as n/a in the
// human-readable output.
var perLayer = []metricDef{
	{"core.step_us.p50", "us"},
	{"core.step_us.p99", "us"},
	{"core.busy_s", "s"},
	{"core.drain_s", "s"},
	{"core.drain_cycles", "cycles"},
	{"core.cycles_per_busy_s", "cycles/s"},
	{"wormhole.flits_moved", "count"},
	{"wormhole.active_port_frac", "ratio"},
	{"pcs.probes_launched", "count"},
	{"pcs.probe_success_ratio", "ratio"},
	{"pcs.backtracks_per_probe", "count"},
	{"pcs.misroutes_per_probe", "count"},
	{"pcs.force_waits", "count"},
	{"protocol.sends", "count"},
	{"protocol.send_ns.p50", "ns"},
	{"protocol.send_ns.p99", "ns"},
	{"protocol.circuit_fraction", "ratio"},
	{"protocol.cache_hit_rate", "ratio"},
	{"protocol.setup_cycles_avg", "cycles"},
	{"protocol.wormhole_fallbacks", "count"},
	{"traffic.tick_self_ns.p50", "ns"},
	{"routing.lookup_ns", "ns"},
	{"routing.table_bytes", "bytes"},
	{"routing.build_ms", "ms"},
	{"topology.link_by_id_ns", "ns"},
	{"topology.neighbor_ns", "ns"},
	{"engine.auto_workers", "count"},
	{"engine.auto_over_serial", "ratio"},
	{"engine.w2_over_serial", "ratio"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.encode_mb_per_s", "MB/s"},
	{"snapshot.decode_mb_per_s", "MB/s"},
	{"go.allocs_per_cycle", "count"},
	{"go.alloc_bytes_per_cycle", "bytes"},
	{"go.gc_cycles", "count"},
	{"verify.certify_ms", "ms"},
	{"verify.verdict_cache_hit_ratio", "ratio"},
	{"server.queue_wait_ms.p50", "ms"},
	{"server.queue_wait_ms.p99", "ms"},
	{"server.service_ms.p50", "ms"},
	{"server.service_ms.p99", "ms"},
	{"resultcache.hit_ratio", "ratio"},
	{"resultcache.executed_jobs", "count"},
	{"trace.overhead_s", "s"},
	{"trace.span_coverage", "ratio"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// manifest is the part of BENCHMARK.json the harness cross-checks.
type manifest struct {
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

// checkCatalogue verifies that every metric name and unit is well formed,
// used once, and that the workloads and metrics the harness reports are
// exactly the ones BENCHMARK.json (raw) declares, with the same units.
func checkCatalogue(raw []byte, workloads []string) error {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q is malformed", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("unit %q of %s is malformed", d.Unit, d.Name)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	var declared []metricDef
	for _, d := range m.EndToEnd {
		declared = append(declared, metricDef{d.Name, d.Unit})
	}
	if err := sameDefs("end_to_end", declared, endToEnd); err != nil {
		return err
	}
	declared = declared[:0]
	for _, d := range m.PerLayer {
		declared = append(declared, metricDef{d.Name, d.Unit})
	}
	if err := sameDefs("per_layer", declared, perLayer); err != nil {
		return err
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(sorted(names), ",") != strings.Join(sorted(workloads), ",") {
		return fmt.Errorf("BENCHMARK.json workloads %v, harness runs %v", names, workloads)
	}
	return nil
}

func sameDefs(section string, declared, reported []metricDef) error {
	want := map[string]string{}
	for _, d := range declared {
		want[d.Name] = d.Unit
	}
	if len(want) != len(reported) || len(declared) != len(reported) {
		return fmt.Errorf("BENCHMARK.json %s declares %d metrics, harness reports %d", section, len(declared), len(reported))
	}
	for _, d := range reported {
		unit, ok := want[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json %s lacks %q", section, d.Name)
		}
		if unit != d.Unit {
			return fmt.Errorf("BENCHMARK.json %s gives %s unit %q, harness %q", section, d.Name, unit, d.Unit)
		}
	}
	return nil
}

func sorted(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the JSON object printed as the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics picks every metric of defs out of values; a missing or
// non-finite value is an error, so the result line always carries the full
// catalogue.
func buildMetrics(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
