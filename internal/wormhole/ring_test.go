package wormhole

import (
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/topology"
)

// ringEngine returns an engine whose link VC 0 has a depth-flit buffer, for
// exercising the buffer ring directly.
func ringEngine(t *testing.T, depth int) *Engine {
	t.Helper()
	return newHarness(t, topology.MustCube([]int{4, 4}, true), "dor", Params{NumVCs: 2, BufDepth: depth}).eng
}

func TestVCRingBasics(t *testing.T) {
	e := ringEngine(t, 3)
	for i := int32(0); i < 3; i++ {
		e.pushFlit(0, flitRef{seq: i})
	}
	if e.in[0].count != 3 {
		t.Fatalf("count = %d after 3 pushes", e.in[0].count)
	}
	if e.in[1].count != 0 {
		t.Fatal("push into VC 0 reached VC 1")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("push into a full VC did not panic")
			}
		}()
		e.pushFlit(0, flitRef{seq: 99})
	}()
	for i := int32(0); i < 3; i++ {
		if got := e.front(0); got.seq != i {
			t.Fatalf("front %d: %+v", i, got)
		}
		e.popFlit(0)
	}
	if e.in[0].count != 0 {
		t.Fatalf("count = %d after draining", e.in[0].count)
	}
}

func TestVCRingWrapAround(t *testing.T) {
	e := ringEngine(t, 2)
	for i := int32(0); i < 10; i++ {
		e.pushFlit(0, flitRef{seq: i})
		if got := e.front(0); got.seq != i {
			t.Fatalf("wraparound order broken at round %d: got %d", i, got.seq)
		}
		e.popFlit(0)
	}
}

// TestVCRingInvalidDepth: a VC ring must hold at least one flit, so New
// rejects a zero or negative buffer depth.
func TestVCRingInvalidDepth(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := routing.New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range []int{0, -1} {
		if _, err := New(topo, fn, Params{NumVCs: 2, BufDepth: depth}, Hooks{}); err == nil {
			t.Fatalf("buffer depth %d accepted", depth)
		}
	}
}

// TestVCRingOrderProperty: any interleaving of pushes and pops preserves
// FIFO order.
func TestVCRingOrderProperty(t *testing.T) {
	e := ringEngine(t, 8)
	prop := func(ops []bool) bool {
		e.in[0].head, e.in[0].count = 0, 0
		next, expect := int32(0), int32(0)
		for _, push := range ops {
			if push {
				if e.in[0].count < e.depth {
					e.pushFlit(0, flitRef{seq: next})
					next++
				}
			} else if e.in[0].count > 0 {
				if e.front(0).seq != expect {
					return false
				}
				e.popFlit(0)
				expect++
			}
		}
		for ; e.in[0].count > 0; e.popFlit(0) {
			if e.front(0).seq != expect {
				return false
			}
			expect++
		}
		return expect == next
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

// TestVCRingScrubKeepsOrder removes one message's flits from a wrapped ring
// (the abort scrub) and checks the rest keep their order.
func TestVCRingScrubKeepsOrder(t *testing.T) {
	e := ringEngine(t, 5)
	for i := 0; i < 3; i++ { // move head to 3 so the contents wrap
		e.pushFlit(0, flitRef{})
		e.popFlit(0)
	}
	slots := []int32{7, 2, 7, 7, 4}
	for i, s := range slots {
		e.pushFlit(0, flitRef{slot: s, seq: int32(i)})
	}
	if removed := e.removeMsgFlits(0, 7); removed != 3 {
		t.Fatalf("removed %d flits, want 3", removed)
	}
	want := []flitRef{{slot: 2, seq: 1}, {slot: 4, seq: 4}}
	if e.in[0].count != int32(len(want)) {
		t.Fatalf("count = %d after scrub", e.in[0].count)
	}
	for i, w := range want {
		if got := e.bufAt(0, int32(i)); got != w {
			t.Fatalf("flit %d = %+v, want %+v", i, got, w)
		}
	}
}
