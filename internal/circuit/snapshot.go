package circuit

// Snapshot support for the per-node Circuit Cache: entries serialise in
// their ascending destination order, together with the hit/miss/eviction
// counters and the random policy's RNG state when one is attached. Capacity
// and policy kind come from configuration and are not serialised; restore
// targets a cache built identically, and refuses entry lists the cache
// could not hold (unsorted or duplicated destinations, more entries than
// the capacity).

import (
	"fmt"

	"repro/internal/snapshot"
	"repro/internal/topology"
)

// PolicyRNG returns the RNG owned by a "random" replacement policy, or nil
// for the stateless policies.
func (c *Cache) PolicyRNG() interface {
	State() uint64
	Seed(uint64)
} {
	if r, ok := c.policy.(*Random); ok {
		return r.RNG
	}
	return nil
}

// EncodeState writes the cache's entries and counters.
func (c *Cache) EncodeState(w *snapshot.Writer) error {
	w.I64(c.Hits)
	w.I64(c.Misses)
	w.I64(c.Evictions)
	if rng := c.PolicyRNG(); rng != nil {
		w.Bool(true)
		w.U64(rng.State())
	} else {
		w.Bool(false)
	}
	w.U32(uint32(len(c.entries)))
	for _, e := range c.entries {
		w.I64(int64(e.ID))
		w.Int(int(e.Dest))
		w.Int(e.Switch)
		w.I64(int64(e.Channel))
		w.Int(e.InitialSwitch)
		w.U8(uint8(e.State))
		w.Bool(e.InUse)
		w.Bool(e.ReleaseRequested)
		w.I64(e.LastUse)
		w.I64(e.UseCount)
		w.Int(e.BufFlits)
	}
	return w.Err()
}

// DecodeState restores state written by EncodeState into a cache built with
// the same capacity and policy.
func (c *Cache) DecodeState(r *snapshot.Reader) error {
	c.Hits = r.I64()
	c.Misses = r.I64()
	c.Evictions = r.I64()
	hasRNG := r.Bool()
	rng := c.PolicyRNG()
	if hasRNG != (rng != nil) {
		return fmt.Errorf("circuit: snapshot policy RNG=%v, cache policy RNG=%v (policy mismatch)", hasRNG, rng != nil)
	}
	if hasRNG {
		rng.Seed(r.U64())
	}
	c.entries = c.entries[:0]
	n := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	if n > c.capacity {
		return fmt.Errorf("circuit: snapshot holds %d cache entries, capacity %d", n, c.capacity)
	}
	for i := 0; i < n; i++ {
		e := &Entry{
			ID:               ID(r.I64()),
			Dest:             topology.Node(r.Int()),
			Switch:           r.Int(),
			Channel:          topology.LinkID(r.I64()),
			InitialSwitch:    r.Int(),
			State:            State(r.U8()),
			InUse:            r.Bool(),
			ReleaseRequested: r.Bool(),
			LastUse:          r.I64(),
			UseCount:         r.I64(),
			BufFlits:         r.Int(),
		}
		if r.Err() != nil {
			return r.Err()
		}
		if i > 0 && e.Dest <= c.entries[i-1].Dest {
			return fmt.Errorf("circuit: snapshot cache entries not in ascending destination order (%d after %d)", e.Dest, c.entries[i-1].Dest)
		}
		c.entries = append(c.entries, e)
	}
	return r.Err()
}
