package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/protocol"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/verify"
	"repro/wave"
)

// Layer microbenchmarks: each times one module's public functions over a
// seeded sample, in the benchmark's own process.

// sink keeps timed loops from being optimised away.
var sink int

// nsPerOp runs batch (which performs ops operations) until each of five
// trials has lasted at least 20ms, and returns the median ns per operation.
func nsPerOp(ops int, batch func()) float64 {
	var trials []float64
	for t := 0; t < 5; t++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			batch()
			n++
		}
		trials = append(trials, float64(time.Since(start))/float64(n*ops))
	}
	return Median(trials)
}

// linkInto returns a link that ends at n, or Invalid when n has no
// neighbours (the scan is set-up, not timed).
func linkInto(topo topology.Topology, n topology.Node) topology.LinkID {
	for p := 0; p < topo.OutDegree(n); p++ {
		out, ok := topo.OutSlot(n, p)
		if !ok {
			continue
		}
		l, ok := topo.LinkByID(out)
		if !ok {
			continue
		}
		for q := 0; q < topo.OutDegree(l.To); q++ {
			back, ok := topo.OutSlot(l.To, q)
			if !ok {
				continue
			}
			if bl, ok := topo.LinkByID(back); ok && bl.To == n {
				return back
			}
		}
	}
	return topology.Invalid
}

// routingBench builds the routing representation the simulator would select
// for (topo, fn) with routing.SelectTableCached, in a process where nothing
// has built it yet, and times Candidates on it over seeded queries: half at
// injection, half arriving over a real link.
func routingBench(topo topology.Topology, fnName string, numVCs int, rng *rand.Rand) (map[string]float64, string, error) {
	fn, err := routing.New(fnName, topo, numVCs)
	if err != nil {
		return nil, "", err
	}
	t0 := time.Now()
	sel, info := routing.SelectTableCached(fn, topo, routing.DefaultTableMaxNodes)
	build := time.Since(t0)

	type query struct {
		here, dst topology.Node
		in        topology.LinkID
	}
	qs := make([]query, 4096)
	for i := range qs {
		here := topology.Node(rng.Intn(topo.Nodes()))
		dst := topology.Node(rng.Intn(topo.Hosts()))
		for dst == here {
			dst = topology.Node(rng.Intn(topo.Hosts()))
		}
		in := topology.Invalid
		if i%2 == 1 {
			in = linkInto(topo, here)
		}
		qs[i] = query{here, dst, in}
	}
	out := make([]routing.Candidate, 0, 64)
	lookup := nsPerOp(len(qs), func() {
		for _, q := range qs {
			out = sel.Candidates(q.here, q.dst, q.in, 0, out[:0])
			sink += len(out)
		}
	})
	m := map[string]float64{
		"routing.lookup_ns":   lookup,
		"routing.table_bytes": float64(info.Bytes),
		"routing.build_ms":    float64(build) / 1e6,
	}
	line := fmt.Sprintf("routing %s on %s: %s table (%d bytes, gated=%v), selected in %.3f ms, Candidates %.1f ns",
		fnName, topo.Name(), info.Mode, info.Bytes, info.Gated, float64(build)/1e6, lookup)
	return m, line, nil
}

// topologyBench times LinkByID over seeded existing links, and neighbour
// lookup: Geometry.Neighbor on cubes, OutSlot then LinkByID elsewhere.
func topologyBench(topo topology.Topology, rng *rand.Rand) (map[string]float64, string) {
	var ids []topology.LinkID
	for len(ids) < 4096 {
		n := topology.Node(rng.Intn(topo.Nodes()))
		if id, ok := topo.OutSlot(n, rng.Intn(topo.OutDegree(n))); ok {
			ids = append(ids, id)
		}
	}
	linkNs := nsPerOp(len(ids), func() {
		for _, id := range ids {
			l, _ := topo.LinkByID(id)
			sink += int(l.To)
		}
	})
	var neighborNs float64
	how := "OutSlot+LinkByID"
	if g, ok := topo.(topology.Geometry); ok {
		how = "Geometry.Neighbor"
		type query struct {
			n   topology.Node
			dim int
			dir topology.Dir
		}
		qs := make([]query, 4096)
		for i := range qs {
			qs[i] = query{topology.Node(rng.Intn(g.Nodes())), rng.Intn(g.Dims()), topology.Dir(rng.Intn(2))}
		}
		neighborNs = nsPerOp(len(qs), func() {
			for _, q := range qs {
				nb, _ := g.Neighbor(q.n, q.dim, q.dir)
				sink += int(nb)
			}
		})
	} else {
		type query struct {
			n    topology.Node
			port int
		}
		qs := make([]query, 4096)
		for i := range qs {
			n := topology.Node(rng.Intn(topo.Nodes()))
			qs[i] = query{n, rng.Intn(topo.OutDegree(n))}
		}
		neighborNs = nsPerOp(len(qs), func() {
			for _, q := range qs {
				if id, ok := topo.OutSlot(q.n, q.port); ok {
					l, _ := topo.LinkByID(id)
					sink += int(l.To)
				}
			}
		})
	}
	m := map[string]float64{"topology.link_by_id_ns": linkNs, "topology.neighbor_ns": neighborNs}
	line := fmt.Sprintf("topology %s: LinkByID %.1f ns, neighbour (%s) %.1f ns", topo.Name(), linkNs, how, neighborNs)
	return m, line
}

// certifyBench runs verify.Certify once on each distinct configuration, in
// order, and returns the times in ms. Every configuration must certify.
func certifyBench(cfgs []wave.Config) ([]float64, []string, error) {
	var ms []float64
	var lines []string
	for _, cfg := range cfgs {
		topo, err := cfg.Topology.Build()
		if err != nil {
			return nil, nil, err
		}
		t0 := time.Now()
		cert, err := verify.Certify(verify.Spec{
			Topo: topo, Routing: cfg.Routing, NumVCs: cfg.NumVCs,
			Protocol: protocol.Kind(cfg.Protocol), NumSwitches: cfg.NumSwitches,
			MaxMisroutes: cfg.MaxMisroutes,
		})
		d := float64(time.Since(t0)) / 1e6
		if err != nil {
			return nil, nil, fmt.Errorf("certify %s %s: %w", topo.Name(), cfg.Protocol, err)
		}
		if !cert.Certified {
			return nil, nil, fmt.Errorf("certify %s %s: not certified: %s", topo.Name(), cfg.Protocol, cert.Failure())
		}
		ms = append(ms, d)
		lines = append(lines, fmt.Sprintf("verify.Certify %s %s %s: %.1f ms", topo.Name(), cfg.Routing, cfg.Protocol, d))
	}
	return ms, lines, nil
}
