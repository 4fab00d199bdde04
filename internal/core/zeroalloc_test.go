package core

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/pcs"
	"repro/internal/topology"
)

// forceRound drives one CLRP Force-phase victim search end to end through
// the fabric host: node 0's own circuits to nodes 3 and 4 hold both of its
// outputs, so a Force probe from node 0 to node 2 asks node 0's circuit
// cache for a victim (circuit.Cache.VictimUsingChannel through
// fabricHost.RequestLocalRelease), the victim is torn down, and the probe
// takes its channel. The round then tears the new circuit down and
// re-establishes the victim with the same cache entry, so every round starts
// from the same state.
type forceRound struct {
	f      *Fabric
	now    int64
	victim *circuit.Entry
	res    pcs.SetupResult
	got    bool
	torn   bool
	done   func(pcs.SetupResult)
	tdDone func()
}

func newForceRound(t *testing.T) *forceRound {
	t.Helper()
	topo := topology.MustCube([]int{4, 2}, false)
	prm := DefaultParams()
	prm.NumSwitches = 1
	prm.MaxMisroutes = 0
	prm.Routing = "dor"
	r := &forceRound{f: newFabric(t, topo, prm, Hooks{})}
	r.victim = establish(t, r.f, &r.now, 0, 3, 0)
	establish(t, r.f, &r.now, 0, topo.NodeAt([]int{0, 1}), 0)
	// Callbacks are built once; per-call closures would be allocations of
	// the test, not of the code under test.
	r.done = func(res pcs.SetupResult) { r.res, r.got = res, true }
	r.tdDone = func() { r.torn = true }
	return r
}

// await cycles the fabric until cond holds.
func (r *forceRound) await(t *testing.T, cond func() bool) {
	for i := 0; i < 1000 && !cond(); i++ {
		r.f.Cycle(r.now)
		r.now++
	}
	if !cond() {
		t.Fatal("round did not progress")
	}
}

func (r *forceRound) round(t *testing.T) {
	gotResult := func() bool { return r.got }
	r.got = false
	r.f.LaunchProbe(0, 2, 0, true, r.done)
	r.await(t, gotResult)
	if !r.res.OK || r.victim.State != circuit.Releasing {
		t.Fatalf("force probe: %+v, victim %v", r.res, r.victim.State)
	}
	r.await(t, func() bool { _, ok := r.f.Cache(0).Peek(3); return !ok })

	r.torn = false
	r.f.PCS.Teardown(r.res.Circuit, r.tdDone)
	r.await(t, func() bool { return r.torn })

	v := r.victim
	*v = circuit.Entry{Dest: 3, Switch: 0, InitialSwitch: 0, State: circuit.Setting}
	if err := r.f.Cache(0).Insert(v); err != nil {
		t.Fatal(err)
	}
	r.got = false
	r.f.LaunchProbe(0, 3, 0, false, r.done)
	r.await(t, gotResult)
	if !r.res.OK {
		t.Fatalf("re-establishing the victim failed: %+v", r.res)
	}
	v.ID, v.Channel, v.Switch, v.State = r.res.Circuit, r.res.First.Link, r.res.First.Switch, circuit.Established
}

// TestZeroAllocForceVictimSearch asserts that a Force probe's victim search —
// forceSelectVictim, the fabric host and the circuit cache's candidate scan
// and replacement policy — allocates nothing once the pools are warm.
func TestZeroAllocForceVictimSearch(t *testing.T) {
	r := newForceRound(t)
	for i := 0; i < 3; i++ {
		r.round(t)
	}
	evictions := r.f.Cache(0).Evictions
	if allocs := testing.AllocsPerRun(20, func() { r.round(t) }); allocs != 0 {
		t.Errorf("%.1f allocs per Force round, want 0", allocs)
	}
	if r.f.Cache(0).Evictions <= evictions {
		t.Fatal("the rounds picked no victim")
	}
}
