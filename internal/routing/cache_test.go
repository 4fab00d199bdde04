package routing

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/topology"
)

func cachedTable(t *testing.T, name string, radix []int, torus bool, vcs int) Func {
	t.Helper()
	topo := topology.MustCube(radix, torus)
	fn, err := New(name, topo, vcs)
	if err != nil {
		t.Fatal(err)
	}
	return WithTableCached(fn, topo, DefaultTableMaxNodes)
}

// TestTableCacheSharesIdenticalShapes checks the memoization contract: two
// fabrics over identically shaped topologies share one frozen table, while
// any difference in shape, routing function or VC count gets its own.
func resetTableCacheForTest() {
	tableCacheMu.Lock()
	clear(tableCache)
	tableCacheOrder = tableCacheOrder[:0]
	tableCacheBytes = 0
	tableCacheMu.Unlock()
}

func TestTableCacheSharesIdenticalShapes(t *testing.T) {
	resetTableCacheForTest()

	a := cachedTable(t, "dor", []int{4, 4}, true, 2)
	b := cachedTable(t, "dor", []int{4, 4}, true, 2)
	if a != b {
		t.Error("identical (topology, fn, VCs) did not share a table")
	}
	if c := cachedTable(t, "dor", []int{4, 4}, false, 2); c == a {
		t.Error("mesh and torus of the same radix shared a table")
	}
	if c := cachedTable(t, "duato", []int{4, 4}, true, 3); c == a {
		t.Error("different routing functions shared a table")
	}
	if c := cachedTable(t, "dor", []int{2, 8}, true, 2); c == a {
		t.Error("different dimensions shared a table")
	}
}

// TestTableCacheMatchesUncached verifies a cache hit returns a table whose
// candidate sequences are identical to a freshly built one.
func TestTableCacheMatchesUncached(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	fresh := BuildTable(fn, topo)
	cached := WithTableCached(fn, topo, DefaultTableMaxNodes).(*TableFunc)
	nodes := topo.Nodes()
	for here := 0; here < nodes; here++ {
		for dst := 0; dst < nodes; dst++ {
			if here == dst {
				continue
			}
			a := fresh.View(topology.Node(here), topology.Node(dst))
			b := cached.View(topology.Node(here), topology.Node(dst))
			if len(a) != len(b) {
				t.Fatalf("(%d,%d): candidate count %d != %d", here, dst, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("(%d,%d): candidate %d: %+v != %+v", here, dst, i, a[i], b[i])
				}
			}
		}
	}
}

// TestTableCacheConcurrent hammers the cache from many goroutines (as
// concurrent waved jobs do); run under -race this proves the locking.
func TestTableCacheConcurrent(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got := WithTableCached(fn, topo, DefaultTableMaxNodes)
				if got == nil {
					t.Error("nil table")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTableCacheRespectsSizeGate checks the selection ladder around the
// maxNodes gate: under the gate a flat table is built; above it a k-ary
// n-cube gets the compressed per-dimension table instead of the old silent
// algorithmic fallback; and a function outside the compressed scheme's
// domain falls back to the algorithmic path with Gated reported.
func TestTableCacheRespectsSizeGate(t *testing.T) {
	resetTableCacheForTest()
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, info := SelectTableCached(fn, topo, DefaultTableMaxNodes)
	if _, ok := got.(*TableFunc); !ok || info.Mode != TableFlat || info.Gated {
		t.Errorf("under the gate: got %T, info %+v, want flat table", got, info)
	}
	got, info = SelectTableCached(fn, topo, 8)
	if _, ok := got.(*CompressedFunc); !ok || info.Mode != TableCompressed || info.Gated {
		t.Errorf("over the gate on a cube: got %T, info %+v, want compressed table", got, info)
	}
	if info.Bytes <= 0 {
		t.Errorf("compressed table reported %d bytes", info.Bytes)
	}
	custom := &opaqueFunc{Func: fn}
	got, info = SelectTableCached(custom, topo, 8)
	if got != Func(custom) || info.Mode != TableAlgorithmic || !info.Gated {
		t.Errorf("over the gate with an uncompressible function: got %T, info %+v, want gated fallback", got, info)
	}
}

// opaqueFunc hides a function's identity from the compressed builder (its
// name is not in the registry), standing in for any future function whose
// candidates are not a per-dimension product.
type opaqueFunc struct{ Func }

func (o *opaqueFunc) Name() string { return "opaque" }

// TestTableCacheBounds fills the cache past both limits and checks the LRU
// discipline: entry count and byte total stay bounded, the most recently
// used entries survive, and TableCacheStats agrees with the bound.
func TestTableCacheBounds(t *testing.T) {
	resetTableCacheForTest()
	defer resetTableCacheForTest()
	// tableCacheMaxEntries+4 distinct shapes, all tiny (entry bound binds
	// long before the byte budget).
	var fns []Func
	var topos []topology.Topology
	for i := 0; i < tableCacheMaxEntries+4; i++ {
		topo := topology.MustCube([]int{2 + i, 2}, false)
		fn, err := New("dor", topo, 2)
		if err != nil {
			t.Fatal(err)
		}
		fns = append(fns, fn)
		topos = append(topos, topo)
		WithTableCached(fn, topo, DefaultTableMaxNodes)
	}
	entries, bytes := TableCacheStats()
	if entries > tableCacheMaxEntries {
		t.Errorf("cache holds %d entries, bound is %d", entries, tableCacheMaxEntries)
	}
	if bytes > tableCacheMaxBytes {
		t.Errorf("cache holds %d bytes, budget is %d", bytes, tableCacheMaxBytes)
	}
	if bytes <= 0 {
		t.Error("cache reports zero bytes after inserts")
	}
	// The most recent insert must still be cached (LRU evicts oldest): a
	// repeat lookup returns the identical instance.
	last := len(fns) - 1
	a := WithTableCached(fns[last], topos[last], DefaultTableMaxNodes)
	b := WithTableCached(fns[last], topos[last], DefaultTableMaxNodes)
	if a != b {
		t.Error("most recently used entry was evicted")
	}
	if entries2, _ := TableCacheStats(); entries2 > tableCacheMaxEntries {
		t.Errorf("cache grew past the bound on lookups: %d", entries2)
	}
}

// TestTableCacheByteBudget forces eviction through the byte budget alone
// using an artificial budget-sized entry, proving oversized arenas cannot
// accumulate even when the entry count is small.
func TestTableCacheByteBudget(t *testing.T) {
	resetTableCacheForTest()
	defer resetTableCacheForTest()
	topoA := topology.MustCube([]int{4, 4}, true)
	fnA, err := New("dor", topoA, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := WithTableCached(fnA, topoA, DefaultTableMaxNodes)
	// Inject a synthetic entry that consumes the whole budget; the next
	// insert must evict both older entries.
	tableCacheMu.Lock()
	big := tableKey{topoName: "synthetic", nodes: 1, fnName: "big", numVCs: 1}
	tableCacheInsert(big, &tableEntry{fn: fnA, bytes: tableCacheMaxBytes})
	tableCacheMu.Unlock()
	topoB := topology.MustCube([]int{3, 3}, false)
	fnB, err := New("dor", topoB, 2)
	if err != nil {
		t.Fatal(err)
	}
	WithTableCached(fnB, topoB, DefaultTableMaxNodes)
	if _, bytes := TableCacheStats(); bytes > tableCacheMaxBytes {
		t.Errorf("cache exceeds byte budget after insert: %d > %d", bytes, tableCacheMaxBytes)
	}
	if a2 := WithTableCached(fnA, topoA, DefaultTableMaxNodes); a2 == a {
		t.Error("LRU entry survived a byte-budget eviction")
	}
}

// TestBuildCDGCached checks the dependency-graph memoization added for the
// static prover: identical (topology shape, function, VCs) share one graph,
// any difference gets its own, and a cached graph is structurally identical
// to a fresh build.
func TestBuildCDGCached(t *testing.T) {
	ResetCDGCache()

	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := BuildCDGCached(topo, fn)
	if b := BuildCDGCached(topology.MustCube([]int{4, 4}, true), fn); b != a {
		t.Error("identical shape did not share a graph")
	}
	if c := BuildCDGCached(topology.MustCube([]int{4, 4}, false), fn); c == a {
		t.Error("mesh and torus shared a graph")
	}
	duato, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c := BuildCDGCached(topo, duato); c == a {
		t.Error("different functions shared a graph")
	}

	// Structural equality with an uncached build.
	fresh := BuildCDG(topo, fn)
	if a.NumVertices() != fresh.NumVertices() {
		t.Fatalf("vertex counts differ: %d vs %d", a.NumVertices(), fresh.NumVertices())
	}
	for v := 0; v < fresh.NumVertices(); v++ {
		ca, cf := a.Out(int32(v)), fresh.Out(int32(v))
		if len(ca) != len(cf) {
			t.Fatalf("vertex %d: out-degree %d vs %d", v, len(ca), len(cf))
		}
		for i := range ca {
			if ca[i] != cf[i] {
				t.Fatalf("vertex %d edge %d: %d vs %d", v, i, ca[i], cf[i])
			}
		}
	}
}

// TestBuildCDGCachedConcurrent proves the graph-cache locking under -race.
func TestBuildCDGCachedConcurrent(t *testing.T) {
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if BuildCDGCached(topo, fn) == nil {
					t.Error("nil graph")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestBuildCDGCachedSingleFlight: callers that arrive while a shape is being
// built wait for that build; the walk runs once and all share its graph.
func TestBuildCDGCachedSingleFlight(t *testing.T) {
	ResetCDGCache()
	topo := topology.MustCube([]int{6, 6}, true)
	fn, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	var walks atomic.Int32
	release := make(chan struct{})
	defer SetCDGWalkHook(SetCDGWalkHook(func(string) {
		walks.Add(1)
		<-release
	}))

	const callers = 8
	graphs := make([]*CDG, callers)
	var wg sync.WaitGroup
	for i := range graphs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			graphs[i] = BuildCDGCached(topo, fn)
		}()
	}
	time.Sleep(20 * time.Millisecond) // let the twins reach the in-flight entry
	close(release)
	wg.Wait()
	if n := walks.Load(); n != 1 {
		t.Fatalf("%d concurrent callers walked %d times, want 1", callers, n)
	}
	for i, g := range graphs {
		if g == nil || g != graphs[0] {
			t.Fatalf("caller %d got graph %p, caller 0 got %p", i, g, graphs[0])
		}
	}
}

// TestBuildCDGCachedDistinctKeysConcurrent: two shapes build at the same
// time. The first walk does not finish until the second has started, which
// a cache holding one lock across a whole build can never allow.
func TestBuildCDGCachedDistinctKeysConcurrent(t *testing.T) {
	ResetCDGCache()
	topo := topology.MustCube([]int{4, 4}, true)
	dor, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	duato, err := New("duato", topo, 3)
	if err != nil {
		t.Fatal(err)
	}
	dorStarted, duatoStarted := make(chan struct{}), make(chan struct{})
	var overlapped atomic.Bool
	defer SetCDGWalkHook(SetCDGWalkHook(func(name string) {
		switch name {
		case dor.Name():
			close(dorStarted)
			select {
			case <-duatoStarted:
				overlapped.Store(true)
			case <-time.After(5 * time.Second):
			}
		case duato.Name():
			close(duatoStarted)
		}
	}))

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		BuildCDGCached(topo, dor)
	}()
	<-dorStarted
	BuildCDGCached(topo, duato)
	wg.Wait()
	if !overlapped.Load() {
		t.Fatal("the second shape did not start building while the first was in flight")
	}
}

// TestBuildCDGCachedPanicReleasesWaiters: a build that panics leaves no
// entry behind, so the next caller walks again instead of waiting forever.
func TestBuildCDGCachedPanicReleasesWaiters(t *testing.T) {
	ResetCDGCache()
	topo := topology.MustCube([]int{4, 4}, true)
	fn, err := New("dor", topo, 2)
	if err != nil {
		t.Fatal(err)
	}
	var walks atomic.Int32
	defer SetCDGWalkHook(SetCDGWalkHook(func(string) {
		if walks.Add(1) == 1 {
			panic("injected build failure")
		}
	}))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("injected panic did not surface")
			}
		}()
		BuildCDGCached(topo, fn)
	}()
	if BuildCDGCached(topo, fn) == nil || walks.Load() != 2 {
		t.Fatalf("after a failed build: %d walks, want a second successful one", walks.Load())
	}
}
