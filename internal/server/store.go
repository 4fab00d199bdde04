package server

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"
)

// store holds job records by ID with LRU eviction restricted to terminal
// jobs: capacity bounds memory, but a queued or running job is never
// evicted, so a submitted ID stays resolvable through its whole lifecycle
// (the store may transiently exceed capacity while many jobs are live).
// hits/misses/evictions are monotonic counters over the store's lifetime,
// exposed on /metrics so operators can see lookups bouncing off evicted
// records and size the store accordingly.
type store struct {
	mu  sync.Mutex
	cap int
	m   map[string]*list.Element
	l   *list.List // front = most recently used; values are *Job

	hits, misses, evictions atomic.Int64
}

// counters snapshots the hit/miss/eviction totals.
func (st *store) counters() (hits, misses, evictions int64) {
	return st.hits.Load(), st.misses.Load(), st.evictions.Load()
}

func newStore(capacity int) *store {
	if capacity < 1 {
		capacity = 1
	}
	return &store{cap: capacity, m: make(map[string]*list.Element), l: list.New()}
}

// add inserts j as most recently used and evicts if over capacity.
func (st *store) add(j *Job) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.m[j.ID]; ok {
		e.Value = j
		st.l.MoveToFront(e)
		return
	}
	st.m[j.ID] = st.l.PushFront(j)
	st.evictLocked()
}

// evictLocked removes least-recently-used terminal jobs until the store
// fits. Lock order is store.mu → Job.mu (via State); no path locks in the
// other direction.
func (st *store) evictLocked() {
	for len(st.m) > st.cap {
		var victim *list.Element
		for e := st.l.Back(); e != nil; e = e.Prev() {
			if e.Value.(*Job).State().Terminal() {
				victim = e
				break
			}
		}
		if victim == nil {
			return // every job is live; overshoot rather than lose one
		}
		delete(st.m, victim.Value.(*Job).ID)
		st.l.Remove(victim)
		st.evictions.Add(1)
	}
}

// get returns the job and refreshes its recency.
func (st *store) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		st.misses.Add(1)
		return nil, false
	}
	st.hits.Add(1)
	st.l.MoveToFront(e)
	return e.Value.(*Job), true
}

// finish turns j terminal and makes it the most recently used record in
// one step under the store lock: a client waiting on the job's stream
// fetches /result next, and eviction must never see the job terminal while
// it is still ranked by its last lookup.
func (st *store) finish(j *Job, state State, result []byte, errMsg string, now time.Time) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j.finish(state, result, errMsg, now)
	if e, ok := st.m[j.ID]; ok {
		st.l.MoveToFront(e)
	}
}

// remove deletes the record (used to back out a rejected submission).
func (st *store) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.m[id]; ok {
		delete(st.m, id)
		st.l.Remove(e)
	}
}

// each calls fn for every held job, most recently used first. fn runs
// outside the store lock so it may take Job locks or block briefly.
func (st *store) each(fn func(*Job)) {
	st.mu.Lock()
	jobs := make([]*Job, 0, st.l.Len())
	for e := st.l.Front(); e != nil; e = e.Next() {
		jobs = append(jobs, e.Value.(*Job))
	}
	st.mu.Unlock()
	for _, j := range jobs {
		fn(j)
	}
}

// size is the number of held records.
func (st *store) size() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.m)
}
