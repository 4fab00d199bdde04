package pcs

import (
	"testing"

	"repro/internal/topology"
)

// TestBacktrackReusesParentFrame checks the probe frame stack: a probe
// enumerates its outputs once at launch and once per forward move, and a
// backtrack pops back to the parent's frame without enumerating. A forward
// move is either undone by a backtrack or part of a circuit's final path, so
// the enumeration count must equal launches + backtracks + established hops.
func TestBacktrackReusesParentFrame(t *testing.T) {
	topo := topology.MustCube([]int{8, 8}, true)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 2}, &fakeHost{})
	hops, resolved := 0, 0
	done := func(r SetupResult) {
		resolved++
		if r.OK {
			hops += r.PathLen
		}
	}
	// Circuits are never torn down, so later probes find their minimal
	// channels taken and misroute and backtrack around them.
	const probes = 160
	for i := 0; i < probes; i++ {
		src := topology.Node(i * 7 % 64)
		dst := topology.Node((i*7 + 9 + i%5) % 64)
		if src == dst {
			dst = (dst + 1) % 64
		}
		e.LaunchProbe(src, dst, 0, false, done)
	}
	runUntil(t, e, 100_000, func() bool { return resolved == probes })
	if e.Ctr.Backtracks == 0 || e.Ctr.ProbesFailed == 0 {
		t.Fatalf("scenario too easy: %d backtracks, %d failures", e.Ctr.Backtracks, e.Ctr.ProbesFailed)
	}
	want := e.Ctr.ProbesLaunched + e.Ctr.Backtracks + int64(hops)
	if e.enumerations != want {
		t.Fatalf("%d enumerations, want launches %d + backtracks %d + established hops %d = %d",
			e.enumerations, e.Ctr.ProbesLaunched, e.Ctr.Backtracks, hops, want)
	}
}
