package pcs

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// findProbe returns the in-flight probe with the given ID.
func findProbe(t *testing.T, e *Engine, id uint64) *probe {
	t.Helper()
	for _, p := range e.probes {
		if uint64(p.id) == id {
			return p
		}
	}
	t.Fatalf("probe %d not in flight", id)
	return nil
}

// establish sets up a plain circuit and returns its ID and first channel.
func establish(t *testing.T, e *Engine, src, dst topology.Node) (circuit.ID, Channel) {
	t.Helper()
	var res *SetupResult
	e.LaunchProbe(src, dst, 0, false, func(r SetupResult) { res = &r })
	for c := 0; res == nil; c++ {
		if c > 100 {
			t.Fatal("setup did not resolve")
		}
		e.Cycle(e.now + 1)
	}
	if !res.OK {
		t.Fatalf("circuit %d->%d failed on an idle network", src, dst)
	}
	return res.Circuit, res.First
}

// parkedLine builds the canonical waiting scenario on a 4x2 mesh (one wave
// switch, MB-0): circuit A runs 1->3, and a Force probe 0->3 takes the hop
// 0->1, finds A's channel out of node 1 established, sends a release flit
// and waits. The fake host records release requests without acting, so the
// probe stays parked until the test changes something. It returns the
// probe, A's ID and the awaited channel.
func parkedLine(t *testing.T, host *fakeHost) (*Engine, *probe, circuit.ID, Channel) {
	t.Helper()
	topo := topology.MustCube([]int{4, 2}, false)
	e := newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)
	a, wk := establish(t, e, 1, 3)
	id := e.LaunchProbeTagged(0, 3, 0, true, 7)
	p := findProbe(t, e, uint64(id))
	for c := 0; !p.parked; c++ {
		if c > 20 {
			t.Fatal("force probe never parked")
		}
		e.Cycle(e.now + 1)
	}
	if p.phase != probeWaiting || p.at != 1 || p.waitingFor != wk || p.waitingOwner != int64(a) {
		t.Fatalf("parked probe in unexpected state: phase %d at %d waiting for %+v (owner %d)",
			p.phase, p.at, p.waitingFor, p.waitingOwner)
	}
	// Parked cycles do no work at all: no counters, no host calls.
	ctr, progress := e.Ctr, host.progress
	for i := 0; i < 5; i++ {
		e.Cycle(e.now + 1)
	}
	if e.Ctr != ctr || host.progress != progress || !p.parked {
		t.Fatalf("parked probe did work: counters %+v -> %+v, progress %d -> %d", ctr, e.Ctr, progress, host.progress)
	}
	return e, p, a, wk
}

// TestParkedProbeTakesFreedChannel: the victim's teardown frees the awaited
// channel, and the parked probe reserves it within the same engine cycle,
// exactly when an unparked poll would.
func TestParkedProbeTakesFreedChannel(t *testing.T) {
	var requested []circuit.ID
	host := &fakeHost{remote: func(id circuit.ID) { requested = append(requested, id) }}
	e, p, a, wk := parkedLine(t, host)
	if len(requested) != 1 || requested[0] != a {
		t.Fatalf("release requests %v, want [%d]", requested, a)
	}
	e.Teardown(a, nil)
	e.Cycle(e.now + 1)
	if e.ChannelStatus(wk) != Reserved || e.owner[e.key(wk)] != int64(p.id) {
		t.Fatalf("awaited channel is %v (owner %d) one cycle after teardown, want reserved by probe %d",
			e.ChannelStatus(wk), e.owner[e.key(wk)], p.id)
	}
	if p.parked || p.phase != probeAdvancing || p.at != 2 {
		t.Fatalf("probe did not move on: parked %v phase %d at %d", p.parked, p.phase, p.at)
	}
}

// twoVictims builds a 4x4 mesh (one wave switch, MB-0) where circuits A
// and B leave node 5 along dimensions 0 and 1. Force probe Q (5->7) can use
// only A's channel; Force probe P (5->15), launched after Q, can use either
// and waits on A's. Both end parked.
func twoVictims(t *testing.T, host *fakeHost) (e *Engine, p, q *probe, a, b circuit.ID, chA, chB Channel) {
	t.Helper()
	topo := topology.MustCube([]int{4, 4}, false)
	e = newEngine(t, topo, Params{NumSwitches: 1, MaxMisroutes: 0}, host)
	a, chA = establish(t, e, 5, 7)  // (1,1) -> (3,1)
	b, chB = establish(t, e, 5, 13) // (1,1) -> (1,3)
	q = findProbe(t, e, uint64(e.LaunchProbeTagged(5, 7, 0, true, 1)))
	p = findProbe(t, e, uint64(e.LaunchProbeTagged(5, 15, 0, true, 2)))
	for c := 0; !p.parked || !q.parked; c++ {
		if c > 20 {
			t.Fatal("force probes never parked")
		}
		e.Cycle(e.now + 1)
	}
	if p.waitingFor != chA || p.waitingOwner != int64(a) {
		t.Fatalf("P waits for %+v (owner %d), want A's channel %+v", p.waitingFor, p.waitingOwner, chA)
	}
	return e, p, q, a, b, chA, chB
}

// TestParkedProbeTakesOtherFreedCandidate: a parked probe wakes when any of
// its candidate channels is written, not only the awaited one. B's teardown
// frees the channel P was not waiting for, and P takes it.
func TestParkedProbeTakesOtherFreedCandidate(t *testing.T) {
	e, p, _, _, b, _, chB := twoVictims(t, &fakeHost{remote: func(circuit.ID) {}})
	e.Teardown(b, nil)
	e.Cycle(e.now + 1)
	if e.ChannelStatus(chB) != Reserved || e.owner[e.key(chB)] != int64(p.id) {
		t.Fatalf("B's channel is %v (owner %d), want reserved by P", e.ChannelStatus(chB), e.owner[e.key(chB)])
	}
}

// TestParkedProbeReselectsOnOwnerChange: when A is torn down, Q (stepped
// first) takes A's channel, so its owner changes from circuit A to probe Q.
// P must wake, notice, and re-select B as its victim.
func TestParkedProbeReselectsOnOwnerChange(t *testing.T) {
	var requested []circuit.ID
	host := &fakeHost{remote: func(id circuit.ID) { requested = append(requested, id) }}
	e, p, q, a, b, chA, chB := twoVictims(t, host)
	sent := e.Ctr.ReleasesSent

	e.Teardown(a, nil)
	e.Cycle(e.now + 1)
	if e.ChannelStatus(chA) != Reserved || e.owner[e.key(chA)] != int64(q.id) {
		t.Fatalf("A's channel is %v (owner %d), want reserved by Q", e.ChannelStatus(chA), e.owner[e.key(chA)])
	}
	if p.phase != probeWaiting || p.waitingFor != chB || p.waitingOwner != int64(b) {
		t.Fatalf("P did not re-select B: phase %d waiting for %+v (owner %d)", p.phase, p.waitingFor, p.waitingOwner)
	}
	if e.Ctr.ReleasesSent != sent+1 {
		t.Fatalf("ReleasesSent = %d, want %d (one release flit for B)", e.Ctr.ReleasesSent, sent+1)
	}
	e.Cycle(e.now + 1)
	if n := len(requested); n == 0 || requested[n-1] != b {
		t.Fatalf("release requests %v, want B (%d) last", requested, b)
	}
}

// TestParkedProbeBacktracksOnFault: the awaited channel fails mid-wait.
// With nothing else requestable the parked probe must wake and backtrack.
func TestParkedProbeBacktracksOnFault(t *testing.T) {
	host := &fakeHost{remote: func(circuit.ID) {}}
	e, p, _, wk := parkedLine(t, host)
	backtracks := e.Ctr.Backtracks
	e.InjectDynamicFault(wk)
	e.Cycle(e.now + 1)
	if e.Ctr.Backtracks != backtracks+1 || p.at != 0 || p.phase != probeAdvancing {
		t.Fatalf("probe did not backtrack off the faulty channel: backtracks %d -> %d, at %d, phase %d",
			backtracks, e.Ctr.Backtracks, p.at, p.phase)
	}
}

// TestParkedProbeSnapshotRestore takes a snapshot while the Force probe is
// parked, restores it into a fresh engine, and drives both engines through
// the same remaining script: the victim is torn down, the probe completes.
// Restored probes start unparked and re-poll once; the outcome, counters
// and register file must match the uninterrupted engine exactly.
func TestParkedProbeSnapshotRestore(t *testing.T) {
	type outcome struct {
		ctr  Counters
		res  SetupResult
		regs []Status
	}
	finish := func(e *Engine, a circuit.ID) outcome {
		var out outcome
		e.SetProbeDone(func(_, _ topology.Node, _ int, _ bool, tag int64, r SetupResult) {
			if tag == 7 {
				out.res = r
			}
		})
		e.SetCircuitFreed(func(topology.Node, topology.Node, circuit.ID) {})
		for i := 0; i < 3; i++ {
			e.Cycle(e.now + 1)
		}
		e.TeardownNotify(a)
		for i := 0; i < 40; i++ {
			e.Cycle(e.now + 1)
		}
		out.ctr = e.Ctr
		out.regs = append([]Status(nil), e.status...)
		return out
	}

	e, _, a, _ := parkedLine(t, &fakeHost{remote: func(circuit.ID) {}})
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := finish(e, a)
	if !want.res.OK {
		t.Fatal("force probe did not complete after the teardown")
	}

	restored := newEngine(t, e.topo, e.prm, &fakeHost{remote: func(circuit.ID) {}})
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.DecodeState(r); err != nil {
		t.Fatal(err)
	}
	if len(restored.probes) != 1 || restored.probes[0].parked {
		t.Fatal("restored probe should be in flight and unparked")
	}
	got := finish(restored, a)
	if got.ctr != want.ctr || got.res != want.res {
		t.Fatalf("restored run diverged:\n got  %+v %+v\n want %+v %+v", got.ctr, got.res, want.ctr, want.res)
	}
	if !slices.Equal(got.regs, want.regs) {
		t.Fatal("restored run ends with a different channel status register file")
	}
}
