package topology

import (
	"testing"
	"unsafe"
)

// closedForm is the divide/modulo cube arithmetic the slot tables replace,
// kept here as the oracle they are checked against.
type closedForm struct {
	radix  []int
	wrap   bool
	nodes  int
	stride []int
}

func newClosedForm(radix []int, wrap bool) closedForm {
	cf := closedForm{radix: radix, wrap: wrap, nodes: 1, stride: make([]int, len(radix))}
	for d, k := range radix {
		cf.stride[d] = cf.nodes
		cf.nodes *= k
	}
	return cf
}

func (cf closedForm) coordAlong(n Node, d int) int { return (int(n) / cf.stride[d]) % cf.radix[d] }

func (cf closedForm) neighbor(n Node, dim int, dir Dir) (Node, bool) {
	x := cf.coordAlong(n, dim)
	k := cf.radix[dim]
	nx := x + 1
	if dir == Minus {
		nx = x - 1
	}
	if nx == k || nx < 0 {
		if !cf.wrap {
			return 0, false
		}
		nx = (nx + k) % k
	}
	return n + Node((nx-x)*cf.stride[dim]), true
}

func (cf closedForm) outLink(n Node, dim int, dir Dir) (LinkID, bool) {
	_, ok := cf.neighbor(n, dim, dir)
	return LinkID(int(n)*2*len(cf.radix) + 2*dim + int(dir)), ok
}

func (cf closedForm) linkByID(id LinkID) (Link, bool) {
	per := 2 * len(cf.radix)
	if id < 0 || int(id) >= cf.nodes*per {
		return Link{}, false
	}
	n := Node(int(id) / per)
	dim := int(id) % per / 2
	dir := Dir(int(id) % 2)
	to, ok := cf.neighbor(n, dim, dir)
	if !ok {
		return Link{}, false
	}
	x := cf.coordAlong(n, dim)
	wrap := cf.wrap && ((dir == Plus && x == cf.radix[dim]-1) || (dir == Minus && x == 0))
	return Link{ID: id, From: n, To: to, Dim: dim, Dir: dir, Wrap: wrap}, true
}

func (cf closedForm) offsetAlong(a, b Node, dim int) int {
	diff := cf.coordAlong(b, dim) - cf.coordAlong(a, dim)
	if !cf.wrap {
		return diff
	}
	k := cf.radix[dim]
	for diff > k/2 {
		diff -= k
	}
	for diff < -(k-1)/2 {
		diff += k
	}
	return diff
}

// TestSlotTablesMatchClosedForm compares every table-backed Cube accessor
// with the closed-form arithmetic over whole topologies: a torus, a mesh
// (phantom boundary slots), a hypercube and an uneven-radix 3-D torus
// (odd radix, mixed strides). LinkByID is also probed past both ends of the
// slot range.
func TestSlotTablesMatchClosedForm(t *testing.T) {
	cases := []struct {
		name  string
		radix []int
		wrap  bool
	}{
		{"torus-6x6", []int{6, 6}, true},
		{"mesh-5x4", []int{5, 4}, false},
		{"hypercube-5", []int{2, 2, 2, 2, 2}, false},
		{"torus-3x5x4", []int{3, 5, 4}, true},
		{"torus-2x3", []int{2, 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := MustCube(tc.radix, tc.wrap)
			cf := newClosedForm(tc.radix, tc.wrap)
			dims := len(tc.radix)
			if c.Nodes() != cf.nodes || c.NumLinkSlots() != cf.nodes*2*dims {
				t.Fatalf("nodes/slots = %d/%d, want %d/%d", c.Nodes(), c.NumLinkSlots(), cf.nodes, cf.nodes*2*dims)
			}
			coord := make([]int, dims)
			offs := make([]int, dims)
			for n := Node(0); int(n) < cf.nodes; n++ {
				c.Coord(n, coord)
				for d := 0; d < dims; d++ {
					if got, want := c.CoordAlong(n, d), cf.coordAlong(n, d); got != want || coord[d] != want {
						t.Fatalf("coord(%d, %d) = %d/%d, want %d", n, d, got, coord[d], want)
					}
					for dir := Plus; dir <= Minus; dir++ {
						gn, gok := c.Neighbor(n, d, dir)
						wn, wok := cf.neighbor(n, d, dir)
						if gn != wn || gok != wok {
							t.Fatalf("Neighbor(%d, %d, %v) = %d,%v, want %d,%v", n, d, dir, gn, gok, wn, wok)
						}
						gl, gok := c.OutLink(n, d, dir)
						wl, wok := cf.outLink(n, d, dir)
						if gl != wl || gok != wok {
							t.Fatalf("OutLink(%d, %d, %v) = %d,%v, want %d,%v", n, d, dir, gl, gok, wl, wok)
						}
						port := 2*d + int(dir)
						if sl, sok := c.OutSlot(n, port); sl != wl || sok != wok {
							t.Fatalf("OutSlot(%d, %d) = %d,%v, want %d,%v", n, port, sl, sok, wl, wok)
						}
					}
				}
				if c.NodeAt(coord) != n {
					t.Fatalf("NodeAt(%v) = %d, want %d", coord, c.NodeAt(coord), n)
				}
				for m := Node(0); int(m) < cf.nodes; m++ {
					c.Offsets(n, m, offs)
					dist := 0
					for d := 0; d < dims; d++ {
						want := cf.offsetAlong(n, m, d)
						if offs[d] != want || c.OffsetAlong(n, m, d) != want {
							t.Fatalf("offset(%d->%d, dim %d) = %d, want %d", n, m, d, offs[d], want)
						}
						dist += absInt(want)
					}
					if c.Distance(n, m) != dist {
						t.Fatalf("Distance(%d, %d) = %d, want %d", n, m, c.Distance(n, m), dist)
					}
				}
			}
			for id := LinkID(-3); int(id) < cf.nodes*2*dims+3; id++ {
				gl, gok := c.LinkByID(id)
				wl, wok := cf.linkByID(id)
				if gl != wl || gok != wok {
					t.Fatalf("LinkByID(%d) = %+v,%v, want %+v,%v", id, gl, gok, wl, wok)
				}
				grev, gok := c.ReverseLinkID(id)
				if !wok {
					if gok || grev != Invalid {
						t.Fatalf("ReverseLinkID(%d) = %d,%v on a missing slot, want Invalid,false", id, grev, gok)
					}
					continue
				}
				wrev, wok := cf.outLink(wl.To, wl.Dim, wl.Dir.Opposite())
				if grev != wrev || gok != wok {
					t.Fatalf("ReverseLinkID(%d) = %d,%v, want %d,%v", id, grev, gok, wrev, wok)
				}
			}
		})
	}
}

// TestNewCubeRejectsOversizedTables checks the int32 bound of the slot
// tables fails cleanly instead of allocating.
func TestNewCubeRejectsOversizedTables(t *testing.T) {
	if _, err := NewCube([]int{1 << 16, 1 << 16}, true); err == nil {
		t.Fatal("2^32-node torus accepted")
	}
	if _, err := NewHypercube(40); err == nil {
		t.Fatal("40-dimensional hypercube accepted")
	}
}

// TestCubeSlotSize pins the slot record at 16 bytes, four per cache line.
func TestCubeSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(cubeSlot{}); n != 16 {
		t.Fatalf("cubeSlot is %d bytes, want 16", n)
	}
}
