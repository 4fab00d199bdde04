package wave

import (
	"bytes"
	"testing"
)

// TestSnapshotResumeMatrix is the checkpoint/resume contract: for every
// protocol on torus and hypercube, with a dynamic fault schedule straddling
// the checkpoint (one repair and one injection still pending as events) and
// the retry machinery armed, three runs must agree bit for bit:
//
//	A — uninterrupted,
//	B — same run with a mid-measurement Snapshot taken (checkpointing must
//	    be a pure observation),
//	C — a fresh process restoring B's snapshot and resuming.
//
// Stats is comparable with ==, including the per-link flit checksums, so
// equality here means every flit travelled identically. Worker settings
// vary across cases (serial, fixed pool, Workers:0 auto-tune) — all are
// bound to the same bits by the engine's determinism contract.
func TestSnapshotResumeMatrix(t *testing.T) {
	torus := TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	hcube := TopologyConfig{Kind: "hypercube", Dims: 5}
	cases := []struct {
		name     string
		topo     TopologyConfig
		protocol string
		workers  int
		w        Workload
	}{
		{"clrp-torus", torus, "clrp", 0, Workload{Pattern: "uniform", Load: 0.15, FixedLength: 48}},
		{"carp-torus", torus, "carp", 1, Workload{Pattern: "transpose", Load: 0.1, FixedLength: 64, WantCircuit: true}},
		{"wormhole-torus", torus, "wormhole", 4, Workload{Pattern: "uniform", Load: 0.2, FixedLength: 16}},
		{"pcs-torus", torus, "pcs", 1, Workload{Pattern: "uniform", Load: 0.05, FixedLength: 96}},
		{"clrp-hypercube", hcube, "clrp", 1, Workload{Pattern: "bitreverse", Load: 0.12, FixedLength: 48,
			WorkingSet: 4, Reuse: 0.7, RedrawPeriod: 50}},
		{"carp-hypercube", hcube, "carp", 0, Workload{Pattern: "bitreverse", Load: 0.08, FixedLength: 64, WantCircuit: true}},
		{"wormhole-hypercube", hcube, "wormhole", 1, Workload{Pattern: "uniform", Load: 0.15, FixedLength: 16}},
		{"pcs-hypercube", hcube, "pcs", 1, Workload{Pattern: "uniform", Load: 0.04, FixedLength: 96}},
	}
	const warmup, measure, checkpointAt = 500, 2000, 1000
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Topology = tc.topo
			cfg.Protocol = tc.protocol
			cfg.Seed = 12345
			cfg.Workers = tc.workers
			// Fault at 600 repairing at 1100 and fault at 1300: both sides of
			// the cycle-1000 checkpoint, so the snapshot carries a pending
			// repair and a pending injection.
			cfg.FaultSchedule = FaultScheduleConfig{Count: 2, Start: 600, Spacing: 700, Repair: 500}
			cfg.ProbeRetryLimit = 2
			cfg.RetryBackoffCycles = 40

			sA, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sA.Close()
			resA, err := sA.RunLoad(tc.w, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			statsA := sA.Stats()

			sB, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer sB.Close()
			var buf bytes.Buffer
			taken := false
			sB.OnInterval(checkpointAt, func(now int64) {
				if taken {
					return
				}
				taken = true
				if !sB.InLoadRun() {
					t.Error("checkpoint hook fired outside the load run")
				}
				if err := sB.Snapshot(&buf); err != nil {
					t.Errorf("Snapshot: %v", err)
				}
			})
			resB, err := sB.RunLoad(tc.w, warmup, measure)
			if err != nil {
				t.Fatal(err)
			}
			if !taken {
				t.Fatal("checkpoint hook never fired")
			}
			if statsB := sB.Stats(); statsB != statsA {
				t.Errorf("checkpointed run diverged from uninterrupted:\n A: %+v\n B: %+v", statsA, statsB)
			}
			if *resB != *resA {
				t.Errorf("checkpointed run's Result diverged:\n A: %+v\n B: %+v", *resA, *resB)
			}

			sC, err := Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("Restore: %v", err)
			}
			defer sC.Close()
			if got := sC.Now(); got != checkpointAt {
				t.Fatalf("restored clock at %d, want %d", got, checkpointAt)
			}
			if !sC.InLoadRun() {
				t.Fatal("restored simulator lost its in-progress load run")
			}
			resC, err := sC.ResumeLoad()
			if err != nil {
				t.Fatalf("ResumeLoad: %v", err)
			}
			if statsC := sC.Stats(); statsC != statsA {
				t.Errorf("restored run diverged from uninterrupted:\n A: %+v\n C: %+v", statsA, statsC)
			}
			if *resC != *resA {
				t.Errorf("restored run's Result diverged:\n A: %+v\n C: %+v", *resA, *resC)
			}
		})
	}
}

// TestSnapshotIdleRoundTrip checkpoints a simulator outside any load run
// and checks the restored copy steps identically under hand-driven traffic.
func TestSnapshotIdleRoundTrip(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 99
	build := func() *Simulator {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	drive := func(s *Simulator, from int64) {
		for i := 0; i < 40; i++ {
			s.Send(int(from)%s.Nodes(), (int(from)+7*i+1)%s.Nodes(), 24, false)
			if err := s.Run(25); err != nil {
				t.Fatal(err)
			}
			from++
		}
		if err := s.Drain(100_000); err != nil {
			t.Fatal(err)
		}
	}

	sA := build()
	defer sA.Close()
	sB := build()
	defer sB.Close()
	for _, s := range []*Simulator{sA, sB} {
		s.Send(0, 9, 32, false)
		s.Send(3, 12, 32, false)
		if err := s.Run(300); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sB.Snapshot(&buf); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	sC, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer sC.Close()
	if sC.Stats() != sB.Stats() {
		t.Fatalf("restored Stats differ before any further stepping:\n B: %+v\n C: %+v", sB.Stats(), sC.Stats())
	}

	drive(sA, 300)
	drive(sC, 300)
	if a, c := sA.Stats(), sC.Stats(); a != c {
		t.Errorf("restored run diverged after further traffic:\n A: %+v\n C: %+v", a, c)
	}
}

// TestSnapshotDigestRejectsCorruption flips one payload byte and expects
// Restore to refuse — either a structural decode error or the trailing
// digest check, never a silently wrong simulator.
func TestSnapshotDigestRejectsCorruption(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 5
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Send(1, 14, 16, false)
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)/2] ^= 0x40
	if sim, err := Restore(bytes.NewReader(b)); err == nil {
		sim.Close()
		t.Fatal("corrupted snapshot restored without error")
	}
}

// TestSnapshotMidSearchProbes checkpoints a saturated CLRP run at the first
// cycle where a probe is in the middle of its search — holding a path of at
// least two hops, so its frame stack of output enumerations is more than the
// source frame — and checks that the restored run, which rebuilds those
// frames from the probes' paths, finishes with the uninterrupted run's
// Stats.
func TestSnapshotMidSearchProbes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	cfg.CacheCapacity = 2
	cfg.Seed = 31
	cfg.Workers = 1
	w := Workload{Pattern: "uniform", Load: 0.2, FixedLength: 32, WorkingSet: 4, Reuse: 0.7, WantCircuit: true, Seed: 3}
	const warmup, measure = 300, 900

	sA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sA.Close()
	if _, err := sA.RunLoad(w, warmup, measure); err != nil {
		t.Fatal(err)
	}

	sB, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sB.Close()
	var buf bytes.Buffer
	taken := false
	sB.OnInterval(1, func(now int64) {
		if taken || now < warmup || sB.mgr.Fab.PCS.DeepestProbe() < 2 {
			return
		}
		taken = true
		if err := sB.Snapshot(&buf); err != nil {
			t.Errorf("Snapshot: %v", err)
		}
	})
	if _, err := sB.RunLoad(w, warmup, measure); err != nil {
		t.Fatal(err)
	}
	if !taken {
		t.Fatal("no cycle had a probe two or more hops into its search")
	}

	sC, err := Restore(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	defer sC.Close()
	if sC.mgr.Fab.PCS.DeepestProbe() < 2 {
		t.Fatal("restored simulator lost the mid-search probe")
	}
	if _, err := sC.ResumeLoad(); err != nil {
		t.Fatalf("ResumeLoad: %v", err)
	}
	if a, c := sA.Stats(), sC.Stats(); a != c {
		t.Errorf("restored run diverged from uninterrupted:\n A: %+v\n C: %+v", a, c)
	}
}

// restoreSeed is a real snapshot of an 8x8 CLRP torus mid-run: circuits,
// probes, VC buffers and source queues all hold state.
func restoreSeed(t testing.TB) []byte {
	cfg := DefaultConfig()
	cfg.Topology = TopologyConfig{Kind: "torus", Radix: []int{8, 8}}
	cfg.CacheCapacity = 2
	cfg.Seed = 8
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 64; i++ {
		s.Send(i, (i*11+5)%64, 32, true)
	}
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRestore feeds arbitrary bytes to Restore: it must return a simulator
// or an error, never panic. The seed corpus — a real 8x8 CLRP snapshot,
// which must restore, plus truncated and bit-flipped copies — runs under
// plain go test.
func FuzzRestore(f *testing.F) {
	seed := restoreSeed(f)
	if s, err := Restore(bytes.NewReader(seed)); err != nil {
		f.Fatalf("the seed snapshot does not restore: %v", err)
	} else {
		s.Close()
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	flipped := bytes.Clone(seed)
	flipped[len(flipped)*3/4] ^= 0x10
	f.Add(flipped)
	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := Restore(bytes.NewReader(data)); err == nil {
			s.Close()
		}
	})
}
