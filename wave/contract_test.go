package wave

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// TestStatsDigestContract pins the SHA-256 of the final Stats JSON (the
// digest `wavesim -digest` prints) for a handful of short runs that together
// reach every protocol path the performance work touches: the E7 stress
// router at saturation (Force probes waiting on victims, serial and 2
// workers), CLRP on a mesh under transient dynamic faults, CARP on a
// hypercube, and CLRP on the two non-cube families. Optimisations must keep
// these digests bit-identical; a digest that changes on purpose is a
// behaviour change and is recorded in CHANGES.md together with the new
// value.
func TestStatsDigestContract(t *testing.T) {
	stress := DefaultConfig() // E7 router: Duato w=3, k=2, MB-2
	stress.Topology = TopologyConfig{Kind: "torus", Radix: []int{16, 16}}
	stress.CacheCapacity = 2
	stress.Seed = 7
	stressLoad := Workload{Pattern: "uniform", Load: 0.2, FixedLength: 32,
		WorkingSet: 4, Reuse: 0.7, WantCircuit: true, Seed: 11}

	faulted := DefaultConfig()
	faulted.Topology = TopologyConfig{Kind: "mesh", Radix: []int{8, 8}}
	faulted.Seed = 42
	faulted.FaultSchedule = FaultScheduleConfig{Count: 12, Start: 300, Spacing: 60, Repair: 250}
	faulted.ProbeRetryLimit = 3
	faulted.RetryBackoffCycles = 16

	hcube := DefaultConfig()
	hcube.Topology = TopologyConfig{Kind: "hypercube", Dims: 6}
	hcube.Protocol = "carp"
	hcube.Seed = 5

	fattree := DefaultConfig()
	fattree.Topology = TopologyConfig{Kind: "fattree", Radix: []int{4}, Dims: 2}
	fattree.Routing = "updown"
	fattree.Seed = 9

	fullmesh := DefaultConfig()
	fullmesh.Topology = TopologyConfig{Kind: "fullmesh", Radix: []int{16}}
	fullmesh.Routing = "vcfree"
	fullmesh.CacheCapacity = 2
	fullmesh.Seed = 9

	// CARP circuits come from compiler directives, not from the load: two
	// rounds of three all-node permutations each oversubscribe the
	// hypercube's wave channels, so probes misroute, backtrack and fail.
	var carpProg Program
	for round, masks := range [][]int{{0b111111, 0b101101, 0b110011}, {0b011110, 0b100111, 0b111010}} {
		at := int64(round) * 1600
		for n := 0; n < 64; n++ {
			for _, mask := range masks {
				dst := n ^ mask
				carpProg.At(at).Open(n, dst)
				for i := int64(1); i <= 6; i++ {
					carpProg.At(at+i*150).Send(n, dst, 64)
				}
				carpProg.At(at+1400).Close(n, dst)
			}
		}
	}

	cases := []struct {
		name    string
		cfg     Config
		w       Workload
		prog    *Program
		warmup  int64
		measure int64
		workers int
		want    string
	}{
		{"stress-16x16-serial", stress, stressLoad, nil, 500, 1500, 1,
			"sha256:c3c0da9e5b3d985dd6243f577dbdd71d10d4c78e543a27993692837ccb0a8077"},
		{"stress-16x16-workers2", stress, stressLoad, nil, 500, 1500, 2,
			"sha256:c3c0da9e5b3d985dd6243f577dbdd71d10d4c78e543a27993692837ccb0a8077"},
		{"clrp-mesh-faults", faulted, Workload{Pattern: "uniform", Load: 0.08, FixedLength: 48,
			WorkingSet: 4, Reuse: 0.6, WantCircuit: true}, nil, 500, 2000, 1,
			"sha256:532d462e3a7c5e3c55ffdebdfd78c0e6e13c68edadd677892ee3f88d36a69078"},
		{"carp-hypercube", hcube, Workload{}, &carpProg, 0, 0, 1,
			"sha256:68d275e5beb7055d8ca1449399df0b6ebce1a37f8d4bd7d9e17353f22a34a4b4"},
		{"clrp-fattree", fattree, Workload{Pattern: "uniform", Load: 0.1, FixedLength: 48,
			WorkingSet: 4, Reuse: 0.7, WantCircuit: true}, nil, 500, 2000, 1,
			"sha256:cacb4fe7a42116955937954442dbf8f72d10e3e5f60dd2cf4327971c77ba1b31"},
		{"clrp-fullmesh", fullmesh, Workload{Pattern: "uniform", Load: 0.3, FixedLength: 48,
			WorkingSet: 4, Reuse: 0.7, WantCircuit: true}, nil, 500, 2000, 1,
			"sha256:18569766316d67ba53882e0c8ba194506351fb352cf58660b871bd82d6c1e0f9"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var st Stats
			if tc.prog != nil {
				cfg := tc.cfg
				cfg.Workers = tc.workers
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if err := s.RunProgram(tc.prog.Reader(), 100_000); err != nil {
					t.Fatal(err)
				}
				st = s.Stats()
			} else {
				var res Result
				st, res = runForStats(t, tc.cfg, tc.w, tc.workers, tc.warmup, tc.measure)
				if res.Delivered == 0 {
					t.Fatal("no messages delivered in the measurement window")
				}
			}
			if st.Probes.Launched == 0 {
				t.Fatal("no probes launched: the run does not exercise the PCS engine")
			}
			j, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("sha256:%x", sha256.Sum256(j))
			if got != tc.want {
				t.Errorf("stats digest = %s, want %s\nstats: %s", got, tc.want, j)
			}
		})
	}
}
