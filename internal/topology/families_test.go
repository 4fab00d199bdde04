package topology

import "testing"

// familyTopos are the non-cube families plus a cube control, exercised by the
// shape-agnostic invariant tests below.
func familyTopos() []Topology {
	return []Topology{
		MustFatTree(2, 2),
		MustFatTree(2, 3),
		MustFatTree(4, 2),
		MustFatTree(3, 3),
		MustFullMesh(2),
		MustFullMesh(7),
		MustCube([]int{4, 4}, false),
		MustCube([]int{4, 4}, true),
	}
}

func TestFamilyValidation(t *testing.T) {
	if _, err := NewFatTree(1, 2); err == nil {
		t.Error("fat tree arity 1 accepted")
	}
	if _, err := NewFatTree(2, 0); err == nil {
		t.Error("fat tree with 0 levels accepted")
	}
	if _, err := NewFatTree(2, 32); err == nil {
		t.Error("2^32-host fat tree accepted")
	}
	if _, err := NewFullMesh(1); err == nil {
		t.Error("1-node full mesh accepted")
	}
	if _, err := NewFullMesh(1 << 13); err == nil {
		t.Error("oversized full mesh accepted")
	}
}

func TestFamilyCounts(t *testing.T) {
	ft := MustFatTree(4, 2) // 16 hosts, 2 levels of 4 switches
	if ft.Nodes() != 24 || ft.Hosts() != 16 {
		t.Errorf("4-ary 2-tree: nodes=%d hosts=%d, want 24/16", ft.Nodes(), ft.Hosts())
	}
	// Links: 16 host ups + 4 leaf switches with 4 up + 4 down + 4 roots with
	// 4 down = 16 + 4*8 + 4*4 = 64.
	if ft.NumLinkSlots() != 64 {
		t.Errorf("4-ary 2-tree slots = %d, want 64", ft.NumLinkSlots())
	}
	if ft.MaxOutDegree() != 8 {
		t.Errorf("4-ary 2-tree max degree = %d, want 8", ft.MaxOutDegree())
	}
	fm := MustFullMesh(7)
	if fm.Nodes() != 7 || fm.Hosts() != 7 || fm.NumLinkSlots() != 42 || fm.MaxOutDegree() != 6 {
		t.Errorf("7-node full mesh: nodes=%d hosts=%d slots=%d deg=%d",
			fm.Nodes(), fm.Hosts(), fm.NumLinkSlots(), fm.MaxOutDegree())
	}
}

// TestSlotLayoutInvariants pins the topology-owned slot contract every dense
// per-link array in the simulator relies on: per-node ranges are contiguous
// and disjoint, cover exactly [0, NumLinkSlots), and OutSlot agrees with
// LinkByID about which slots carry real links.
func TestSlotLayoutInvariants(t *testing.T) {
	for _, topo := range familyTopos() {
		sum := 0
		maxDeg := 0
		for v := Node(0); int(v) < topo.Nodes(); v++ {
			deg := topo.OutDegree(v)
			if deg > maxDeg {
				maxDeg = deg
			}
			if got := topo.SlotBase(v); got != sum {
				t.Fatalf("%s: SlotBase(%d) = %d, want %d (ranges must be contiguous)",
					topo.Name(), v, got, sum)
			}
			for port := 0; port < deg; port++ {
				id, ok := topo.OutSlot(v, port)
				if id != LinkID(sum+port) {
					t.Fatalf("%s: OutSlot(%d, %d) = %d, want %d", topo.Name(), v, port, id, sum+port)
				}
				l, exists := topo.LinkByID(id)
				if ok != exists {
					t.Fatalf("%s: OutSlot ok=%v but LinkByID ok=%v for slot %d", topo.Name(), ok, exists, id)
				}
				if !ok {
					continue
				}
				if l.ID != id || l.From != v {
					t.Fatalf("%s: LinkByID(%d) = %+v, want ID=%d From=%d", topo.Name(), id, l, id, v)
				}
				if l.To == v || int(l.To) < 0 || int(l.To) >= topo.Nodes() {
					t.Fatalf("%s: link %d has bad target %d", topo.Name(), id, l.To)
				}
			}
			if _, ok := topo.OutSlot(v, deg); ok {
				t.Fatalf("%s: OutSlot(%d, %d) beyond OutDegree resolved", topo.Name(), v, deg)
			}
			sum += deg
		}
		if sum != topo.NumLinkSlots() {
			t.Fatalf("%s: sum of OutDegree = %d, NumLinkSlots = %d", topo.Name(), sum, topo.NumLinkSlots())
		}
		if maxDeg != topo.MaxOutDegree() {
			t.Fatalf("%s: observed max degree %d, MaxOutDegree %d", topo.Name(), maxDeg, topo.MaxOutDegree())
		}
		if _, ok := topo.LinkByID(Invalid); ok {
			t.Fatalf("%s: Invalid link resolved", topo.Name())
		}
		if _, ok := topo.LinkByID(LinkID(topo.NumLinkSlots())); ok {
			t.Fatalf("%s: out-of-range link resolved", topo.Name())
		}
	}
}

// TestReverseLinkInvolution: every physical link has a reverse with swapped
// endpoints, and reversing twice returns the original — the property the
// PCS backtracking path depends on.
func TestReverseLinkInvolution(t *testing.T) {
	for _, topo := range familyTopos() {
		for _, l := range AllLinks(topo) {
			rev, ok := topo.ReverseLinkID(l.ID)
			if !ok {
				t.Fatalf("%s: link %d has no reverse", topo.Name(), l.ID)
			}
			rl, ok := topo.LinkByID(rev)
			if !ok || rl.From != l.To || rl.To != l.From {
				t.Fatalf("%s: reverse of %+v is %+v", topo.Name(), l, rl)
			}
			back, ok := topo.ReverseLinkID(rl.ID)
			if !ok || back != l.ID {
				t.Fatalf("%s: reverse not an involution: %d -> %d -> %d", topo.Name(), l.ID, rev, back)
			}
		}
	}
}

// bfsDistances computes single-source hop counts over AllLinks — the oracle
// for the families' closed-form Distance.
func bfsDistances(topo Topology, src Node) []int {
	adj := make([][]Node, topo.Nodes())
	for _, l := range AllLinks(topo) {
		adj[l.From] = append(adj[l.From], l.To)
	}
	dist := make([]int, topo.Nodes())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []Node{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, nb := range adj[v] {
			if dist[nb] < 0 {
				dist[nb] = dist[v] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

// TestDistanceMatchesBFS checks the closed-form Distance of every family
// against a breadth-first oracle for all node pairs, and Diameter against
// the maximum over host pairs.
func TestDistanceMatchesBFS(t *testing.T) {
	for _, topo := range familyTopos() {
		diam := 0
		for a := Node(0); int(a) < topo.Nodes(); a++ {
			dist := bfsDistances(topo, a)
			for b := Node(0); int(b) < topo.Nodes(); b++ {
				if dist[b] < 0 {
					t.Fatalf("%s: node %d unreachable from %d", topo.Name(), b, a)
				}
				if got := topo.Distance(a, b); got != dist[b] {
					t.Fatalf("%s: Distance(%d, %d) = %d, BFS says %d", topo.Name(), a, b, got, dist[b])
				}
				if int(a) < topo.Hosts() && int(b) < topo.Hosts() && dist[b] > diam {
					diam = dist[b]
				}
			}
		}
		if got := topo.Diameter(); got != diam {
			t.Fatalf("%s: Diameter = %d, max host-pair distance = %d", topo.Name(), got, diam)
		}
	}
}

func TestFullMeshLinkTo(t *testing.T) {
	m := MustFullMesh(6)
	seen := make(map[LinkID]bool)
	for a := Node(0); int(a) < m.Nodes(); a++ {
		for b := Node(0); int(b) < m.Nodes(); b++ {
			if a == b {
				continue
			}
			id := m.LinkTo(a, b)
			if seen[id] {
				t.Fatalf("LinkTo(%d, %d) = %d reused", a, b, id)
			}
			seen[id] = true
			l, ok := m.LinkByID(id)
			if !ok || l.From != a || l.To != b {
				t.Fatalf("LinkTo(%d, %d) resolves to %+v", a, b, l)
			}
		}
	}
	if len(seen) != m.NumLinkSlots() {
		t.Fatalf("LinkTo covers %d slots of %d", len(seen), m.NumLinkSlots())
	}
}

// TestFatTreeStructure pins the tree helpers up*/down* routing builds on:
// levels, subtree membership, the down-port walk and the up-port count.
func TestFatTreeStructure(t *testing.T) {
	ft := MustFatTree(3, 2) // 9 hosts, 3 leaf switches, 3 roots
	for h := Node(0); int(h) < ft.Hosts(); h++ {
		if ft.Level(h) != ft.Levels() {
			t.Fatalf("host %d level = %d, want %d", h, ft.Level(h), ft.Levels())
		}
		if ft.NumUpPorts(h) != 1 {
			t.Fatalf("host %d up ports = %d, want 1", h, ft.NumUpPorts(h))
		}
	}
	for v := Node(ft.Hosts()); int(v) < ft.Nodes(); v++ {
		l := ft.Level(v)
		wantUps := ft.Arity()
		if l == 0 {
			wantUps = 0
		}
		if ft.NumUpPorts(v) != wantUps {
			t.Fatalf("switch %d (level %d) up ports = %d, want %d", v, l, ft.NumUpPorts(v), wantUps)
		}
		// Every root sees every host below it; walking DownPort from any
		// switch must reach the host in Level steps without leaving its
		// subtree.
		for h := Node(0); int(h) < ft.Hosts(); h++ {
			if !ft.InSubtree(v, h) {
				continue
			}
			cur := v
			for steps := 0; cur != h; steps++ {
				if steps > ft.Levels() {
					t.Fatalf("DownPort walk from %d to host %d did not terminate", v, h)
				}
				port := ft.DownPort(cur, h)
				id, ok := ft.OutSlot(cur, port)
				if !ok {
					t.Fatalf("DownPort(%d, %d) = %d has no link", cur, h, port)
				}
				link, _ := ft.LinkByID(id)
				if link.Dir != Minus {
					t.Fatalf("DownPort(%d, %d) leads upward: %+v", cur, h, link)
				}
				if !ft.InSubtree(link.To, h) {
					t.Fatalf("down hop %d -> %d leaves the subtree of host %d", cur, link.To, h)
				}
				cur = link.To
			}
		}
	}
	// A root's subtree is everything; a leaf switch covers exactly its k hosts.
	root := Node(ft.Hosts())
	for h := Node(0); int(h) < ft.Hosts(); h++ {
		if !ft.InSubtree(root, h) {
			t.Fatalf("host %d not below root %d", h, root)
		}
	}
	covered := 0
	for v := Node(ft.Hosts()); int(v) < ft.Nodes(); v++ {
		if ft.Level(v) != ft.Levels()-1 {
			continue
		}
		for h := Node(0); int(h) < ft.Hosts(); h++ {
			if ft.InSubtree(v, h) {
				covered++
			}
		}
	}
	if covered != ft.Hosts() {
		t.Fatalf("leaf switches cover %d hosts, want %d (disjoint partition)", covered, ft.Hosts())
	}
}
