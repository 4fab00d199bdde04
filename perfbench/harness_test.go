package main

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/server"
)

func TestServeMixIsSeededAndCoversEverySpec(t *testing.T) {
	specs, order := serveMix(7)
	if len(specs) != 100 || len(order) != serveSubmissions {
		t.Fatalf("%d specs, %d submissions; want 100 and %d", len(specs), len(order), serveSubmissions)
	}
	count := make([]int, len(specs))
	for _, i := range order {
		count[i]++
	}
	for i, c := range count {
		if c == 0 {
			t.Errorf("spec %d is never submitted", i)
		}
	}
	configs := map[uint64]bool{}
	bodies := map[string]bool{}
	for _, s := range specs {
		configs[s.cfg.Seed] = true
		bodies[string(s.body)] = true
		var sp server.Spec
		dec := json.NewDecoder(bytes.NewReader(s.body))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&sp); err != nil {
			t.Fatalf("spec %s does not decode as a server spec: %v", s.body, err)
		}
	}
	if len(configs) != 9 || len(bodies) != len(specs) {
		t.Errorf("%d configurations and %d distinct bodies; want 9 and %d", len(configs), len(bodies), len(specs))
	}
	again, order2 := serveMix(7)
	if !bytes.Equal(again[42].body, specs[42].body) || order2[500] != order[500] {
		t.Error("serveMix is not a function of its seed")
	}
	other, _ := serveMix(8)
	if bytes.Equal(other[42].body, specs[42].body) {
		t.Error("serveMix ignores its seed")
	}
}

func TestTracerSelfTimeAndTopLevel(t *testing.T) {
	tr := newTracer(time.Now(), 4)
	tr.spans = []span{
		{name: "traffic.Tick", parent: -1, start: 0, end: 100},
		{name: "wave.Send", parent: 0, start: 10, end: 40},
		{name: "wave.Send", parent: 0, start: 50, end: 70},
		{name: "wave.Step", parent: -1, start: 100, end: 300},
		{name: "wave.Snapshot", parent: -1, start: 300, end: 1000},
	}
	if got := tr.selfTimes("traffic.Tick"); len(got) != 1 || got[0] != 50 {
		t.Errorf("Tick self time %v, want [50]", got)
	}
	if got := tr.durations("wave.Send"); len(got) != 2 || got[0] != 30 || got[1] != 20 {
		t.Errorf("Send durations %v", got)
	}
	if got := tr.topLevel("wave.Snapshot"); got != 300 {
		t.Errorf("top-level time %v, want 300ns", got)
	}
}

func TestSubSeed(t *testing.T) {
	if subSeed(5, 0) != 5 {
		t.Error("the first repetition must run the benchmark seed itself")
	}
	if subSeed(5, 1) == subSeed(5, 2) || subSeed(5, 1) == subSeed(6, 1) {
		t.Error("repetition seeds collide")
	}
}
