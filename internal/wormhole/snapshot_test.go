package wormhole

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/flit"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

// loadedHarness returns an engine on a 4x4 torus with every VC buffer of
// some link holding flits: 16 six-flit messages, stepped 6 cycles.
func loadedHarness(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t, topology.MustCube([]int{4, 4}, true), "duato", Params{NumVCs: 3, BufDepth: 4})
	for i := 0; i < 16; i++ {
		h.eng.Inject(flit.Message{ID: flit.MsgID(i + 1), Src: i, Dst: (i*5 + 7) % 16, Len: 6})
	}
	for cyc := int64(0); cyc < 6; cyc++ {
		h.eng.Cycle(cyc)
	}
	return h
}

// busyVC returns the first link VC holding at least one flit.
func busyVC(t *testing.T, e *Engine) int32 {
	for i := range e.in {
		if e.in[i].count > 0 {
			return int32(i)
		}
	}
	t.Fatal("no VC holds a flit")
	return -1
}

// TestDecodeStateRejectsCorruptVCs encodes engines whose VC buffers were
// tampered with and checks that DecodeState reports each corruption as an
// error, instead of panicking or restoring an engine that would.
func TestDecodeStateRejectsCorruptVCs(t *testing.T) {
	cases := []struct {
		name   string
		tamper func(e *Engine, port int32)
		want   string
	}{
		{"slot out of range", func(e *Engine, port int32) {
			e.bufs[port*e.depth+e.in[port].head].slot = int32(len(e.slots) + 3)
		}, "not live"},
		{"slot not live", func(e *Engine, port int32) {
			e.slots = append(e.slots, msgSlot{})
			e.bufs[port*e.depth+e.in[port].head].slot = int32(len(e.slots) - 1)
		}, "not live"},
		{"seq beyond message", func(e *Engine, port int32) {
			r := &e.bufs[port*e.depth+e.in[port].head]
			r.seq = int32(e.slots[r.slot].msg.Len)
		}, "flit 6 of 6-flit message"},
		{"more flits than BufDepth", func(e *Engine, port int32) {
			e.in[port].count = e.depth + 1
		}, "buffer depth 4"},
		{"current slot out of range", func(e *Engine, port int32) {
			e.in[port].curSlot = 1 << 20
		}, "current message"},
		{"output link out of range", func(e *Engine, port int32) {
			e.in[port].outLink = topology.LinkID(len(e.LinkFlits))
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := loadedHarness(t)
			tc.tamper(src.eng, busyVC(t, src.eng))
			var buf bytes.Buffer
			w, err := snapshot.NewWriter(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := src.eng.EncodeState(w); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			r, err := snapshot.NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			dst := newHarness(t, src.topo, "duato", src.eng.prm)
			err = dst.eng.DecodeState(r)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("DecodeState = %v, want an error mentioning %q", err, tc.want)
			}
		})
	}
}

// TestSnapshotRoundTripFlitRefs checks that an untampered engine's buffers
// survive a round trip: same flit references in the same order, so both
// engines drain identically.
func TestSnapshotRoundTripFlitRefs(t *testing.T) {
	src := loadedHarness(t)
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.eng.EncodeState(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	dst := newHarness(t, src.topo, "duato", src.eng.prm)
	if err := dst.eng.DecodeState(r); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for i := range src.eng.in {
		sv, dv := &src.eng.in[i], &dst.eng.in[i]
		if sv.count != dv.count {
			t.Fatalf("VC %d holds %d flits after restore, want %d", i, dv.count, sv.count)
		}
		for j := int32(0); j < sv.count; j++ {
			if a, b := src.eng.bufAt(int32(i), j), dst.eng.bufAt(int32(i), j); a != b {
				t.Fatalf("VC %d flit %d = %+v after restore, want %+v", i, j, b, a)
			}
		}
	}
	src.run(t, 10_000)
	dst.run(t, 10_000)
	if len(src.order) != len(dst.order) {
		t.Fatalf("delivered %d vs %d messages", len(src.order), len(dst.order))
	}
	for i := range src.order {
		if src.order[i] != dst.order[i] {
			t.Fatalf("delivery %d: msg %d vs %d", i, src.order[i], dst.order[i])
		}
	}
}
