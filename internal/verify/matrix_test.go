package verify

import (
	"fmt"
	"testing"

	"repro/internal/protocol"
	"repro/internal/topology"
)

// TestExperimentMatrix certifies every (topology, routing function,
// protocol, VC count, switch count, recovery) combination the shipped
// experiment suite (internal/experiments) actually runs — E1..E21 all build
// on DefaultConfig (8x8 torus, duato w=3, k=2, m=2) with the overrides
// enumerated here. A failure names the configuration, so a future routing
// or protocol change that silently breaks a theorem is caught in CI before
// any experiment reproduces garbage.
func TestExperimentMatrix(t *testing.T) {
	matrix := experimentMatrix(t)
	for _, c := range matrix {
		cert, err := Certify(c.spec())
		if err != nil {
			t.Errorf("%s: %s/%s w=%d %s k=%d: spec rejected: %v",
				c.exp, c.topo.Name(), c.routing, c.vcs, c.kind, c.switches, err)
			continue
		}
		if !cert.Certified {
			t.Errorf("%s: %s/%s w=%d %s k=%d: NOT certified: %s",
				c.exp, c.topo.Name(), c.routing, c.vcs, c.kind, c.switches, cert.Failure())
		}
		// Recovery configs must say so; everything else must rest on a
		// static graph proof.
		if c.recovery > 0 && cert.Deadlock.Method != "recovery" {
			t.Errorf("%s: expected recovery certification, got %q", c.exp, cert.Deadlock.Method)
		}
		if c.recovery == 0 && cert.Deadlock.Method == "recovery" {
			t.Errorf("%s: static config certified only via recovery", c.exp)
		}
	}
	t.Logf("certified %d experiment configurations", len(matrix))
}

// combo is one experiment-suite configuration.
type combo struct {
	exp      string
	topo     topology.Topology
	routing  string
	vcs      int
	kind     protocol.Kind
	switches int
	recovery int64
}

// spec is the certification request for c.
func (c combo) spec() Spec {
	return Spec{
		Topo: c.topo, Routing: c.routing, NumVCs: c.vcs, Protocol: c.kind,
		NumSwitches: c.switches, MaxMisroutes: 2, ProbeRetryLimit: 3,
		RecoveryTimeout: c.recovery,
	}
}

// name identifies c uniquely within the matrix.
func (c combo) name() string {
	return fmt.Sprintf("%s %s %s w=%d %s k=%d rec=%d",
		c.exp, c.topo.Name(), c.routing, c.vcs, c.kind, c.switches, c.recovery)
}

// experimentMatrix lists the configurations TestExperimentMatrix certifies.
func experimentMatrix(t testing.TB) []combo {
	torus88 := topology.MustCube([]int{8, 8}, true)
	torus44 := topology.MustCube([]int{4, 4}, true) // quick-mode radix
	mesh88 := topology.MustCube([]int{8, 8}, false)
	torus3d := topology.MustCube([]int{4, 4, 4}, true) // E12 3-D cube
	hyper6, err := topology.NewHypercube(6)            // E12 64-node hypercube
	if err != nil {
		t.Fatal(err)
	}

	var matrix []combo

	// The baseline every experiment starts from, across all four protocols
	// (E1 message-length sweep, E2 protocol comparison, E5 probe pressure).
	for _, k := range []protocol.Kind{protocol.Wormhole, protocol.CLRP, protocol.CARP, protocol.PCS} {
		matrix = append(matrix,
			combo{"baseline", torus88, "duato", 3, k, 2, 0},
			combo{"baseline-quick", torus44, "duato", 3, k, 2, 0},
		)
	}
	// E1/E5: single full-width wave channel.
	matrix = append(matrix,
		combo{"e1", torus88, "duato", 3, protocol.CLRP, 1, 0},
		combo{"e5", torus88, "duato", 3, protocol.PCS, 1, 0},
	)
	// E6: switch-count sweep.
	for _, k := range []int{1, 2, 3, 4} {
		matrix = append(matrix, combo{"e6", torus88, "duato", 3, protocol.CLRP, k, 0})
	}
	// E12: topology comparison, wormhole and CLRP on each family.
	for _, k := range []protocol.Kind{protocol.Wormhole, protocol.CLRP} {
		matrix = append(matrix,
			combo{"e12-torus", torus88, "duato", 3, k, 2, 0},
			combo{"e12-mesh", mesh88, "duato", 2, k, 2, 0},
			combo{"e12-cube3", torus3d, "duato", 3, k, 2, 0},
			combo{"e12-hypercube", hyper6, "duato", 2, k, 2, 0},
		)
	}
	// E15: router-complexity study (wormhole only).
	matrix = append(matrix,
		combo{"e15", torus88, "dor", 2, protocol.Wormhole, 2, 0},
		combo{"e15", torus88, "duato", 3, protocol.Wormhole, 2, 0},
	)
	// E16: avoidance vs recovery — the only shipped use of the deliberately
	// cyclic function, certified solely through the recovery mechanism.
	matrix = append(matrix,
		combo{"e16-avoidance", torus88, "dor", 2, protocol.Wormhole, 2, 0},
		combo{"e16-recovery", torus88, "dor-nodateline", 1, protocol.Wormhole, 2, 64},
		combo{"e16-recovery", torus88, "dor-nodateline", 1, protocol.Wormhole, 2, 256},
	)
	// E21: routing-family comparison on a mesh (wormhole only).
	for _, fn := range []string{"dor", "westfirst", "negativefirst", "duato"} {
		matrix = append(matrix, combo{"e21", mesh88, fn, 2, protocol.Wormhole, 2, 0})
	}
	// Non-cube families: fat-tree up*/down* and full-mesh VC-free routing,
	// across every protocol the experiment suite ships. Both certify with a
	// single VC — up*/down* by acyclic up-then-down ordering, VC-free by the
	// Cano-style label restriction on 2-hop paths.
	fattree, err := topology.NewFatTree(4, 2) // 16 hosts, 12 switches
	if err != nil {
		t.Fatal(err)
	}
	fattree2 := topology.MustFatTree(2, 3) // 8 hosts, deeper tree
	fullmesh, err := topology.NewFullMesh(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []protocol.Kind{protocol.Wormhole, protocol.CLRP, protocol.CARP, protocol.PCS} {
		matrix = append(matrix,
			combo{"fattree", fattree, "updown", 1, k, 2, 0},
			combo{"fattree", fattree, "updown", 2, k, 2, 0},
			combo{"fattree-deep", fattree2, "updown", 1, k, 2, 0},
			combo{"fullmesh", fullmesh, "vcfree", 1, k, 2, 0},
			combo{"fullmesh", fullmesh, "vcfree", 2, k, 2, 0},
		)
	}
	// The unlabeled full-mesh variant is cyclic by design: recovery-only,
	// mirroring e16's dor-nodateline role.
	matrix = append(matrix,
		combo{"fullmesh-recovery", fullmesh, "vcfree-nolabel", 1, protocol.Wormhole, 2, 256},
	)
	return matrix
}
