package routing

import (
	"fmt"
	"sort"

	"repro/internal/topology"
)

// CDG is a channel dependency graph: one vertex per (physical link, virtual
// channel) pair, with an edge from channel A to channel B whenever some
// message holding A may request B at the router joining them (Dally & Seitz).
// A routing function with an acyclic CDG is deadlock-free for wormhole
// switching; for adaptive functions the condition applies to the escape
// subfunction's graph (Duato).
type CDG struct {
	numVCs int
	slots  int
	// adj[v] lists the vertices v depends on (may wait for).
	adj [][]int32
	// delivery holds the facts the building walk recorded.
	delivery Delivery
}

// vertexID packs (link, vc).
func (g *CDG) vertexID(link topology.LinkID, vc int) int32 {
	return int32(int(link)*g.numVCs + vc)
}

// VertexID exposes the (link, vc) -> vertex packing so higher layers (the
// internal/verify wait-for graph) can splice protocol-level dependencies
// into the channel vertices of this graph.
func (g *CDG) VertexID(link topology.LinkID, vc int) int32 {
	return g.vertexID(link, vc)
}

// NumVertices returns the dense vertex-space size (link slots x VCs).
func (g *CDG) NumVertices() int { return len(g.adj) }

// Out returns the dependency targets of vertex v. The returned slice is the
// graph's own storage; callers must not mutate it.
func (g *CDG) Out(v int32) []int32 { return g.adj[v] }

// HasEdge reports whether the dependency from -> to exists. Counterexample
// validation uses it to check that a reported cycle is a real cycle.
func (g *CDG) HasEdge(from, to int32) bool {
	if from < 0 || int(from) >= len(g.adj) {
		return false
	}
	for _, w := range g.adj[from] {
		if w == to {
			return true
		}
	}
	return false
}

// VertexName renders a vertex for diagnostics.
func (g *CDG) VertexName(v int32, topo topology.Topology) string {
	link := topology.LinkID(int(v) / g.numVCs)
	vc := int(v) % g.numVCs
	if l, ok := topo.LinkByID(link); ok {
		return fmt.Sprintf("link %d->%d dim%d%v vc%d", l.From, l.To, l.Dim, l.Dir, vc)
	}
	return fmt.Sprintf("link#%d vc%d", link, vc)
}

// Delivery holds what BuildCDG's reachable-state walk learns about message
// delivery on the way: the facts the livelock proof (Theorems 3-4) and the
// connectivity half of Duato's condition rest on.
type Delivery struct {
	// Stuck reports a reachable undelivered state with no candidates; the
	// first one in walk order is kept (injections come before transit).
	Stuck bool
	// At and Dst place the stuck message; Held is the channel vertex it
	// occupies, or -1 when it has no candidates at injection.
	At, Dst topology.Node
	Held    int32
	// Monotone reports that every reachable candidate hop strictly
	// decreases Distance to the destination.
	Monotone bool
}

// Delivery returns the delivery facts recorded by the walk that built g.
func (g *CDG) Delivery() Delivery { return g.delivery }

// BuildCDG enumerates every dependency the routing function can create on the
// topology. Dependencies come only from *reachable* routing states: a
// (channel, destination) pair contributes edges only if some message with
// that destination can actually occupy that channel, which is established by
// forward traversal from every injection point. Enumerating unreachable
// states (e.g. a header sitting one hop past its own destination) would
// manufacture dependencies no execution exhibits. The same walk records the
// graph's Delivery facts, so no caller has to walk the states again.
func BuildCDG(topo topology.Topology, fn Func) *CDG {
	if h := cdgWalkHook.Load(); h != nil {
		(*h)(fn.Name())
	}
	g := &CDG{numVCs: fn.NumVCs(), slots: topo.NumLinkSlots()}
	g.adj = make([][]int32, g.slots*g.numVCs)
	g.delivery.Monotone = true
	hosts := topo.Hosts()

	// A state is a message bound for host dst occupying channel vertex v;
	// dist is Distance from the channel's sink to dst, carried so a hop
	// costs one Distance call. seen holds one bit per state, v*hosts+dst.
	type state struct {
		v, dst, dist int32
	}
	seen := make([]uint64, (len(g.adj)*hosts+63)/64)
	var stack []state
	var cands []Candidate

	stuck := func(at, dst topology.Node, held int32) {
		if !g.delivery.Stuck {
			g.delivery.Stuck, g.delivery.At, g.delivery.Dst, g.delivery.Held = true, at, dst, held
		}
	}
	// take records that a message at distance here from dst may take c:
	// the hop's progress, and the state it reaches if that is new.
	take := func(dst topology.Node, here int32, c Candidate) int32 {
		to := g.vertexID(c.Link, c.VC)
		dist := int32(-1)
		if g.delivery.Monotone {
			if l, ok := topo.LinkByID(c.Link); ok {
				dist = int32(topo.Distance(l.To, dst))
				if dist >= here {
					g.delivery.Monotone = false
				}
			}
		}
		bit := int(to)*hosts + int(dst)
		if seen[bit>>6]&(1<<(bit&63)) == 0 {
			seen[bit>>6] |= 1 << (bit & 63)
			stack = append(stack, state{v: to, dst: int32(dst), dist: dist})
		}
		return to
	}

	// Seed: every injected (src, dst) pair reaches its first-hop channels.
	// Messages originate and terminate at hosts (on cubes every node is a
	// host; on fat trees the switches never inject), so seeding ranges over
	// host pairs.
	for src := topology.Node(0); int(src) < hosts; src++ {
		for dst := topology.Node(0); int(dst) < hosts; dst++ {
			if src == dst {
				continue
			}
			cands = fn.Candidates(src, dst, topology.Invalid, 0, cands[:0])
			if len(cands) == 0 {
				stuck(src, dst, -1)
				continue
			}
			here := int32(topo.Distance(src, dst))
			for _, c := range cands {
				take(dst, here, c)
			}
		}
	}
	// Propagate: a message on channel (link, vc) bound for dst requests the
	// candidates at the link's sink; each is both a dependency edge and a
	// newly reachable state. Edges are deduplicated by scanning the short
	// adjacency list, which keeps them in first-discovery order.
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		link := topology.LinkID(int(s.v) / g.numVCs)
		vc := int(s.v) % g.numVCs
		l, ok := topo.LinkByID(link)
		if !ok {
			continue
		}
		dst := topology.Node(s.dst)
		if l.To == dst {
			continue // delivered; no further dependencies
		}
		cands = fn.Candidates(l.To, dst, link, vc, cands[:0])
		if len(cands) == 0 {
			stuck(l.To, dst, s.v)
		}
	edges:
		for _, c := range cands {
			to := take(dst, s.dist, c)
			for _, w := range g.adj[s.v] {
				if w == to {
					continue edges
				}
			}
			g.adj[s.v] = append(g.adj[s.v], to)
		}
	}
	return g
}

// FindCycle returns a dependency cycle as a vertex sequence (first == last),
// or nil when the graph is acyclic.
func (g *CDG) FindCycle() []int32 {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(g.adj))
	parent := make([]int32, len(g.adj))
	for i := range parent {
		parent[i] = -1
	}
	// Iterative DFS with an explicit stack to survive large graphs.
	type frame struct {
		v    int32
		next int
	}
	for start := range g.adj {
		if color[start] != white {
			continue
		}
		stack := []frame{{v: int32(start)}}
		color[start] = gray
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next < len(g.adj[f.v]) {
				w := g.adj[f.v][f.next]
				f.next++
				switch color[w] {
				case white:
					color[w] = gray
					parent[w] = f.v
					stack = append(stack, frame{v: w})
				case gray:
					// Found a cycle: walk parents from f.v back to w.
					cycle := []int32{w}
					for v := f.v; v != w; v = parent[v] {
						cycle = append(cycle, v)
					}
					cycle = append(cycle, w)
					// Reverse into forward order.
					for i, j := 0, len(cycle)-1; i < j; i, j = i+1, j-1 {
						cycle[i], cycle[j] = cycle[j], cycle[i]
					}
					return cycle
				}
			} else {
				color[f.v] = black
				stack = stack[:len(stack)-1]
			}
		}
	}
	return nil
}

// ShortestCycle returns a minimum-length dependency cycle as a vertex
// sequence (first == last), or nil when the graph is acyclic. FindCycle is
// the fast existence check; this is the diagnostic used to render the
// smallest possible counterexample when a proof fails — a 4-vertex ring
// cycle reads better than the 40-vertex tangle DFS happens to stumble into.
// Cost is O(V*(V+E)) BFS passes, fine at verification sizes.
func (g *CDG) ShortestCycle() []int32 {
	n := len(g.adj)
	dist := make([]int32, n)
	parent := make([]int32, n)
	var best []int32
	for start := 0; start < n; start++ {
		if len(g.adj[start]) == 0 {
			continue
		}
		for i := range dist {
			dist[i] = -1
			parent[i] = -1
		}
		// BFS from start; the first edge w -> start closes a shortest cycle
		// through start of length dist[w]+1.
		queue := []int32{int32(start)}
		dist[start] = 0
	bfs:
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if best != nil && int(dist[v])+1 >= len(best) {
				break // cannot improve on the incumbent
			}
			for _, w := range g.adj[v] {
				if int(w) == start {
					cyc := []int32{int32(start)}
					for u := v; u != int32(start); u = parent[u] {
						cyc = append(cyc, u)
					}
					cyc = append(cyc, int32(start))
					// cyc is [start, v, parent(v), ..., x, start]; reverse the
					// interior so the hops read in forward edge order.
					for i, j := 1, len(cyc)-2; i < j; i, j = i+1, j-1 {
						cyc[i], cyc[j] = cyc[j], cyc[i]
					}
					best = cyc
					break bfs
				}
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					parent[w] = v
					queue = append(queue, w)
				}
			}
		}
		if best != nil && len(best) == 2 {
			break // self-loop; nothing shorter exists
		}
	}
	return best
}

// NumEdges returns the number of distinct dependencies.
func (g *CDG) NumEdges() int {
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

// Verify builds the escape-restricted dependency graph for fn on topo and
// returns an error describing a cycle if one exists. This is the static
// deadlock-freedom check used by the theorem tests and cmd/cdgcheck.
func Verify(topo topology.Topology, fn Func) error {
	g := BuildCDG(topo, fn.Escape())
	if cyc := g.FindCycle(); cyc != nil {
		names := make([]string, len(cyc))
		for i, v := range cyc {
			names[i] = g.VertexName(v, topo)
		}
		return fmt.Errorf("routing: %s has a channel dependency cycle on %s: %v", fn.Name(), topo.Name(), names)
	}
	return nil
}

// Reachability checks that the escape subfunction can route from every host
// to every destination host (connectedness, the other half of Duato's
// condition). Switch-to-switch pairs are excluded: on a fat tree two root
// switches have no up*/down* path, and no message ever needs one.
func Reachability(topo topology.Topology, fn Func) error {
	esc := fn.Escape()
	var cands []Candidate
	for src := topology.Node(0); int(src) < topo.Hosts(); src++ {
		for dst := topology.Node(0); int(dst) < topo.Hosts(); dst++ {
			if src == dst {
				continue
			}
			here := src
			inLink := topology.Invalid
			inVC := 0
			for hops := 0; here != dst; hops++ {
				if hops > topo.Nodes() {
					return fmt.Errorf("routing: escape of %s loops from %d to %d", fn.Name(), src, dst)
				}
				cands = esc.Candidates(here, dst, inLink, inVC, cands[:0])
				if len(cands) == 0 {
					return fmt.Errorf("routing: escape of %s is stuck at node %d heading to %d", fn.Name(), here, dst)
				}
				l, ok := topo.LinkByID(cands[0].Link)
				if !ok {
					return fmt.Errorf("routing: escape of %s chose a missing link at node %d", fn.Name(), here)
				}
				inLink, inVC, here = cands[0].Link, cands[0].VC, l.To
			}
		}
	}
	return nil
}

// Stats summarises a CDG for reporting: the channels that take part in a
// dependency, the dependencies and the largest out-degree.
func (g *CDG) Stats() (vertices, edges int, maxOut int) {
	used := make([]bool, len(g.adj))
	for v, a := range g.adj {
		edges += len(a)
		maxOut = max(maxOut, len(a))
		if len(a) > 0 {
			used[v] = true
		}
		for _, w := range a {
			used[w] = true
		}
	}
	for _, u := range used {
		if u {
			vertices++
		}
	}
	return vertices, edges, maxOut
}

// SortedAdjacency returns a deterministic rendering of the graph edges for
// golden tests.
func (g *CDG) SortedAdjacency() [][2]int32 {
	var out [][2]int32
	for v, a := range g.adj {
		for _, w := range a {
			out = append(out, [2]int32{int32(v), w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
