package routing

import (
	"sync"
	"sync/atomic"

	"repro/internal/topology"
)

// Routing tables are pure functions of (topology shape, routing algorithm,
// VC count): two fabrics built over identically shaped topologies — the same
// kind and dimensions, hence the same deterministic node and LinkID numbering
// — and the same routing function produce byte-identical arenas. Parameter
// sweeps and back-to-back server jobs build dozens of such fabrics, and
// rebuilding the table (Nodes^2 oracle invocations for flat tables) dominated
// fabric construction time. The cache below memoizes table construction on
// that shape key; both table kinds are immutable after construction and
// already safe for concurrent Candidates calls, so sharing one instance
// across fabrics is free.
//
// The cache is LRU-bounded on BOTH entry count and total table bytes: a flat
// 1024-node table weighs tens of megabytes, so a sweep over many shapes must
// recycle old arenas instead of holding every frozen table alive for the
// process lifetime.

// tableKey identifies a table up to arena equality. Topology.Name() encodes
// the kind and every dimension ("8-ary 2-cube (torus)", "4x6 mesh",
// "5-dimensional hypercube"); Nodes guards against any two shapes that could
// ever share a name; the function name and VC count pin the generator; the
// representation flag separates a flat table from a compressed one for the
// same shape (callers with different maxNodes gates may want either).
type tableKey struct {
	topoName   string
	nodes      int
	fnName     string
	numVCs     int
	compressed bool
}

// Cache bounds. A sweep touches a handful of shapes; the entry bound only
// matters for pathological callers cycling through hundreds of distinct
// topologies. The byte budget is what actually protects a sweep over several
// at-gate shapes: four distinct 1024-node flat tables already exceed 128 MiB.
const (
	tableCacheMaxEntries = 16
	tableCacheMaxBytes   = 256 << 20
)

// tableEntry is one memoized table with its selection metadata and cost.
type tableEntry struct {
	fn    Func
	info  TableInfo
	bytes int
}

var (
	tableCacheMu    sync.Mutex
	tableCache      = make(map[tableKey]*tableEntry)
	tableCacheOrder []tableKey // least recently used first
	tableCacheBytes int
)

// tableCacheTouch moves key to the most-recently-used position.
func tableCacheTouch(key tableKey) {
	for i, k := range tableCacheOrder {
		if k == key {
			copy(tableCacheOrder[i:], tableCacheOrder[i+1:])
			tableCacheOrder[len(tableCacheOrder)-1] = key
			return
		}
	}
	tableCacheOrder = append(tableCacheOrder, key)
}

// tableCacheInsert stores a fresh entry and evicts from the LRU end until
// both bounds hold again (never evicting the entry just inserted).
func tableCacheInsert(key tableKey, e *tableEntry) {
	tableCache[key] = e
	tableCacheBytes += e.bytes
	tableCacheTouch(key)
	for len(tableCacheOrder) > 1 &&
		(len(tableCache) > tableCacheMaxEntries || tableCacheBytes > tableCacheMaxBytes) {
		victim := tableCacheOrder[0]
		tableCacheOrder = tableCacheOrder[1:]
		if old, ok := tableCache[victim]; ok {
			tableCacheBytes -= old.bytes
			delete(tableCache, victim)
		}
	}
}

// TableCacheStats reports the memoization cache's current entry count and
// total table bytes, so sweeps and benchmarks can verify the bound holds.
func TableCacheStats() (entries, bytes int) {
	tableCacheMu.Lock()
	defer tableCacheMu.Unlock()
	return len(tableCache), tableCacheBytes
}

// SelectTableCached picks the routing-table representation for (fn, topo)
// and memoizes the build:
//
//   - Nodes <= maxNodes: the flat (here, dst) arena — exact, two-load
//     lookups, quadratic memory (fine under the gate).
//   - Nodes > maxNodes on a k-ary n-cube: the compressed per-dimension
//     table — identical candidate sequences, O(dims) loads, O(n*k^2 + N*n)
//     memory.
//   - Otherwise: fn unchanged, with Gated set in the returned TableInfo so
//     callers can surface the fallback instead of silently running slow.
//
// Safe for concurrent callers.
func SelectTableCached(fn Func, topo topology.Topology, maxNodes int) (Func, TableInfo) {
	if inLinkDependent(fn) {
		// Freezing an input-link-dependent function would erase its transit
		// restrictions; it stays algorithmic (see the InLinkDependent doc).
		return fn, TableInfo{Mode: TableAlgorithmic, Gated: true}
	}
	key := tableKey{
		topoName: topo.Name(),
		nodes:    topo.Nodes(),
		fnName:   fn.Name(),
		numVCs:   fn.NumVCs(),
	}
	key.compressed = topo.Nodes() > maxNodes

	tableCacheMu.Lock()
	if e, ok := tableCache[key]; ok {
		tableCacheTouch(key)
		tableCacheMu.Unlock()
		return e.fn, e.info
	}
	tableCacheMu.Unlock()

	// Build outside the lock: flat builds run Nodes^2 oracle calls and must
	// not serialize unrelated shapes behind them. Concurrent same-shape
	// callers may race to build; the second insert wins harmlessly (tables
	// for one key are interchangeable).
	var e *tableEntry
	if !key.compressed {
		t := BuildTable(fn, topo)
		arena, index := t.MemoryFootprint()
		e = &tableEntry{fn: t, info: TableInfo{Mode: TableFlat, Bytes: arena + index}, bytes: arena + index}
	} else if t, ok := BuildCompressed(fn, topo); ok {
		cells, coords := t.MemoryFootprint()
		e = &tableEntry{fn: t, info: TableInfo{Mode: TableCompressed, Bytes: cells + coords}, bytes: cells + coords}
	} else {
		return fn, TableInfo{Mode: TableAlgorithmic, Gated: true}
	}

	tableCacheMu.Lock()
	if prev, ok := tableCache[key]; ok {
		tableCacheTouch(key)
		tableCacheMu.Unlock()
		return prev.fn, prev.info
	}
	tableCacheInsert(key, e)
	tableCacheMu.Unlock()
	return e.fn, e.info
}

// WithTableCached is the Func-only form of SelectTableCached, kept for
// callers that do not need the selection metadata.
func WithTableCached(fn Func, topo topology.Topology, maxNodes int) Func {
	f, _ := SelectTableCached(fn, topo, maxNodes)
	return f
}

// Channel dependency graphs are pure functions of the same shape key: BuildCDG
// walks Nodes^2 injection pairs plus every reachable (channel, destination)
// state — costly enough that the verification endpoint must not pay it again
// for every repeated /v1/verify call or matrix sweep over the same
// configuration. A built CDG is immutable (the prover only reads adjacency
// and delivery facts), so sharing one instance is free.

const cdgCacheMax = 32

// cdgFlight is one cache entry: done closes once g is built, so a caller
// that finds the entry in flight waits for that build instead of walking
// the same states again. g stays nil if the build panicked.
type cdgFlight struct {
	done chan struct{}
	g    *CDG
}

var (
	cdgCacheMu sync.Mutex
	cdgCache   = make(map[tableKey]*cdgFlight)
	// cdgWalkHook, when set, observes every BuildCDG walk.
	cdgWalkHook atomic.Pointer[func(fnName string)]
)

// BuildCDGCached is BuildCDG with memoization on the same shape key as the
// routing-table cache: (topology name, node count, function name, VC count).
// Safe for concurrent callers: each key is built once while callers for the
// same key wait for it, and distinct keys build concurrently. The bound
// resets the cache rather than letting pathological shape churn grow it
// without limit.
func BuildCDGCached(topo topology.Topology, fn Func) *CDG {
	key := tableKey{
		topoName: topo.Name(),
		nodes:    topo.Nodes(),
		fnName:   fn.Name(),
		numVCs:   fn.NumVCs(),
	}
	for {
		cdgCacheMu.Lock()
		f, ok := cdgCache[key]
		if !ok {
			if len(cdgCache) >= cdgCacheMax {
				clear(cdgCache)
			}
			f = &cdgFlight{done: make(chan struct{})}
			cdgCache[key] = f
		}
		cdgCacheMu.Unlock()
		if !ok {
			return f.build(key, topo, fn)
		}
		<-f.done
		if f.g != nil {
			return f.g
		}
		// The build this caller waited for panicked; retry under a new entry.
	}
}

// build walks the graph for a new cache entry and releases its waiters. A
// panicking build leaves the cache, so the next caller walks afresh.
func (f *cdgFlight) build(key tableKey, topo topology.Topology, fn Func) *CDG {
	defer func() {
		if f.g == nil {
			cdgCacheMu.Lock()
			if cdgCache[key] == f {
				delete(cdgCache, key)
			}
			cdgCacheMu.Unlock()
		}
		close(f.done)
	}()
	f.g = BuildCDG(topo, fn)
	return f.g
}

// ResetCDGCache drops every memoized dependency graph, so the next
// BuildCDGCached call for any shape walks cold. For tests and benchmarks.
func ResetCDGCache() {
	cdgCacheMu.Lock()
	clear(cdgCache)
	cdgCacheMu.Unlock()
}

// SetCDGWalkHook installs h to be called with the routing function's name at
// the start of every BuildCDG walk, and returns the hook it replaces; nil
// removes it. For tests and benchmarks that count walks.
func SetCDGWalkHook(h func(fnName string)) func(fnName string) {
	var p *func(string)
	if h != nil {
		p = &h
	}
	if old := cdgWalkHook.Swap(p); old != nil {
		return *old
	}
	return nil
}
