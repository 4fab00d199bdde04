package wormhole

import (
	"testing"

	"repro/internal/flit"
	"repro/internal/sim"
	"repro/internal/topology"
)

// parallelCycle drives one cycle through the split entry points the fabric
// uses, mirroring the pool's static sharding contract: each pretend worker
// receives exactly one contiguous range, ranges ascending with the worker
// index (the commit rings rely on that ordering; see parallel.go).
func parallelCycle(e *Engine, now int64, shards int) {
	e.BeginCycle(now)
	total := e.NumPorts()
	if shards > e.par.workers {
		shards = e.par.workers
	}
	for w := 0; w < shards; w++ {
		e.PrepareRange(w, w*total/shards, (w+1)*total/shards)
	}
	e.CommitCycle(now)
}

// TestParallelCycleMatchesSerial runs identical random workloads through the
// serial Cycle and the Begin/Prepare/Commit split and demands bit-identical
// delivery order, counters, and channel state every cycle.
func TestParallelCycleMatchesSerial(t *testing.T) {
	cases := []struct {
		name string
		topo topology.Topology
		fn   string
		prm  Params
	}{
		{"torus-duato", topology.MustCube([]int{6, 6}, true), "duato", Params{NumVCs: 3, BufDepth: 4}},
		{"mesh-westfirst", topology.MustCube([]int{5, 5}, false), "westfirst", Params{NumVCs: 2, BufDepth: 2}},
		{"torus-dor-rc", topology.MustCube([]int{4, 4}, true), "dor", Params{NumVCs: 2, BufDepth: 4, RouteDelay: 2, CreditDelay: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ser := newHarness(t, tc.topo, tc.fn, tc.prm)
			par := newHarness(t, tc.topo, tc.fn, tc.prm)
			par.eng.SetParallel(3)

			rng := sim.NewRNG(99)
			nodes := tc.topo.Nodes()
			var nextID flit.MsgID
			for cyc := int64(0); cyc < 600; cyc++ {
				if cyc < 400 {
					for i := 0; i < 2; i++ {
						src := rng.Intn(nodes)
						dst := rng.Intn(nodes)
						nextID++
						m := flit.Message{ID: nextID, Src: src, Dst: dst,
							Len: 1 + rng.Intn(9), InjectTime: cyc}
						ser.eng.Inject(m)
						par.eng.Inject(m)
					}
				}
				ser.eng.Cycle(cyc)
				parallelCycle(par.eng, cyc, 3)

				if ser.eng.FlitsMoved != par.eng.FlitsMoved ||
					ser.eng.FlitsDelivered != par.eng.FlitsDelivered ||
					ser.eng.MsgsDelivered != par.eng.MsgsDelivered ||
					ser.eng.InFlight() != par.eng.InFlight() {
					t.Fatalf("cycle %d: counters diverged: serial (%d,%d,%d,%d) parallel (%d,%d,%d,%d)",
						cyc, ser.eng.FlitsMoved, ser.eng.FlitsDelivered, ser.eng.MsgsDelivered, ser.eng.InFlight(),
						par.eng.FlitsMoved, par.eng.FlitsDelivered, par.eng.MsgsDelivered, par.eng.InFlight())
				}
				for i := range ser.eng.in {
					sv, pv := &ser.eng.in[i], &par.eng.in[i]
					if sv.phase != pv.phase || sv.outLink != pv.outLink || sv.outVC != pv.outVC ||
						sv.rcWait != pv.rcWait || sv.count != pv.count ||
						ser.eng.credits[i] != par.eng.credits[i] || ser.eng.outOwner[i] != par.eng.outOwner[i] {
						t.Fatalf("cycle %d: channel %d state diverged", cyc, i)
					}
				}
			}
			if len(ser.order) != len(par.order) {
				t.Fatalf("delivered %d vs %d messages", len(ser.order), len(par.order))
			}
			for i := range ser.order {
				if ser.order[i] != par.order[i] || ser.delivered[ser.order[i]] != par.delivered[par.order[i]] {
					t.Fatalf("delivery %d diverged: msg %d@%d vs msg %d@%d", i,
						ser.order[i], ser.delivered[ser.order[i]], par.order[i], par.delivered[par.order[i]])
				}
			}
			for i, v := range ser.eng.LinkFlits {
				if v != par.eng.LinkFlits[i] {
					t.Fatalf("link %d utilization diverged: %d vs %d", i, v, par.eng.LinkFlits[i])
				}
			}
		})
	}
}

// TestForEachSetRotation pins down the rotated-bit iteration order the commit
// pass relies on.
func TestForEachSetRotation(t *testing.T) {
	const n = 200
	bits := make([]uint64, (n+63)/64)
	set := []int{0, 1, 5, 63, 64, 65, 127, 128, 150, 199}
	for _, i := range set {
		setBit(bits, i)
	}
	for _, start := range []int{0, 1, 64, 65, 100, 199} {
		var got []int
		forEachSet(bits, n, start, func(p int) { got = append(got, p) })
		var want []int
		for i := 0; i < n; i++ {
			p := (start + i) % n
			for _, s := range set {
				if s == p {
					want = append(want, p)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("start %d: visited %d bits, want %d", start, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("start %d: visit %d = %d, want %d (%v)", start, i, got[i], want[i], got)
			}
		}
	}
}
