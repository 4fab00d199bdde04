package wormhole

// Snapshot support: EncodeState/DecodeState serialise the engine's complete
// mutable state — the slot arena with its LIFO free-list order, per-VC
// buffers as (slot, seq) flit references, injection queues, credit counters
// and the in-flight credit pipe, output ownership, the active-set bitmap,
// recovery bookkeeping and all counters. Per-cycle scratch (busy flags,
// dirty lists, arrivals) is excluded: snapshots are taken between cycles,
// when it is logically empty. Restoring into an engine built from the
// identical Params and topology reproduces the original bit for bit.
//
// DecodeState validates every index it restores — slot, channel, link and
// port numbers, flit positions, buffer occupancy — and returns an error
// rather than leaving an engine that would panic on its next cycle.

import (
	"fmt"

	"repro/internal/flit"
	"repro/internal/snapshot"
	"repro/internal/topology"
)

func encodeMessage(w *snapshot.Writer, m flit.Message) {
	w.I64(int64(m.ID))
	w.Int(m.Src)
	w.Int(m.Dst)
	w.Int(m.Len)
	w.I64(m.InjectTime)
}

func decodeMessage(r *snapshot.Reader) flit.Message {
	return flit.Message{
		ID:         flit.MsgID(r.I64()),
		Src:        r.Int(),
		Dst:        r.Int(),
		Len:        r.Int(),
		InjectTime: r.I64(),
	}
}

// liveSlot reports an error unless s, read for item i of kind what, names a
// live slot of the arena.
func (e *Engine) liveSlot(s int32, what string, i int) error {
	if s < 0 || int(s) >= len(e.slots) || !e.slots[s].live {
		return fmt.Errorf("wormhole: snapshot %s %d names slot %d, which is not live", what, i, s)
	}
	return nil
}

// checkOut reports an error unless (link, vc), read for port i of kind what,
// is a valid output channel or link is Invalid (local delivery).
func (e *Engine) checkOut(link topology.LinkID, vc int, what string, i int) error {
	if link == topology.Invalid {
		return nil
	}
	if link < 0 || int(link) >= len(e.LinkFlits) || vc < 0 || vc >= e.prm.NumVCs {
		return fmt.Errorf("wormhole: snapshot %s %d output (%d,%d) out of range", what, i, link, vc)
	}
	return nil
}

// EncodeState writes the engine's mutable state. The caller guarantees the
// engine is between cycles (no arrivals pending commit).
func (e *Engine) EncodeState(w *snapshot.Writer) error {
	w.I64(e.now)
	w.Int(e.rr)

	// Slot arena: every slot (live or free) in index order, then the
	// free-list in its exact LIFO order — slot assignment is canonical and
	// must survive the round trip.
	w.U32(uint32(len(e.slots)))
	for i := range e.slots {
		sl := &e.slots[i]
		encodeMessage(w, sl.msg)
		w.Bool(sl.live)
		w.I64(sl.lastProgress)
		w.Bool(sl.hasProgress)
		w.Int(sl.retries)
		w.Bool(sl.parked)
	}
	w.U32(uint32(len(e.freeSlots)))
	for _, s := range e.freeSlots {
		w.U32(uint32(s))
	}
	w.Int(e.liveSlots)

	// Link VCs.
	w.U32(uint32(len(e.in)))
	for i := range e.in {
		v := &e.in[i]
		w.U32(uint32(v.count))
		for j := int32(0); j < v.count; j++ {
			ref := e.bufAt(int32(i), j)
			w.U32(uint32(ref.slot))
			w.U32(uint32(ref.seq))
		}
		w.U8(uint8(v.phase))
		w.I64(int64(v.outLink))
		w.Int(int(v.outVC))
		w.Int(int(v.rcWait))
		w.U32(uint32(v.curSlot))
	}
	for _, c := range e.credits {
		w.Int(c)
	}
	for _, o := range e.outOwner {
		w.U32(uint32(o))
	}

	// Injection ports.
	w.U32(uint32(len(e.inj)))
	for i := range e.inj {
		p := &e.inj[i]
		pending := p.queue[p.head:]
		w.U32(uint32(len(pending)))
		for _, s := range pending {
			w.U32(uint32(s))
		}
		w.Int(p.sent)
		w.U8(uint8(p.phase))
		w.I64(int64(p.outLink))
		w.Int(p.outVC)
		w.Int(p.rcWait)
	}

	// Credit pipe (only populated when CreditDelay > 0).
	pendingCredits := e.creditQueue[e.creditHead:]
	w.U32(uint32(len(pendingCredits)))
	for _, pc := range pendingCredits {
		w.U32(uint32(pc.ch))
		w.I64(pc.at)
	}

	// Recovery bookkeeping.
	w.Bool(e.recovery != nil)
	if e.recovery != nil {
		w.I64(e.recovery.Aborts)
		w.U32(uint32(len(e.recovery.parked)))
		for _, p := range e.recovery.parked {
			w.U32(uint32(p.slot))
			w.I64(p.readyAt)
		}
	}

	// Active set.
	w.Int(e.activeCount)
	w.U32(uint32(len(e.active)))
	for _, word := range e.active {
		w.U64(word)
	}

	// Counters.
	w.I64(e.FlitsMoved)
	w.I64(e.FlitsDelivered)
	w.I64(e.MsgsDelivered)
	w.U32(uint32(len(e.LinkFlits)))
	for _, lf := range e.LinkFlits {
		w.I64(lf)
	}
	return w.Err()
}

// DecodeState restores state written by EncodeState into an engine built
// with the same topology and Params.
func (e *Engine) DecodeState(r *snapshot.Reader) error {
	e.now = r.I64()
	e.rr = r.Int()

	nSlots := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	e.slots = make([]msgSlot, nSlots)
	nodes := len(e.inj)
	for i := range e.slots {
		sl := &e.slots[i]
		sl.msg = decodeMessage(r)
		sl.live = r.Bool()
		sl.lastProgress = r.I64()
		sl.hasProgress = r.Bool()
		sl.retries = r.Int()
		sl.parked = r.Bool()
		if m := sl.msg; sl.live && (m.Len < 1 || m.Src < 0 || m.Src >= nodes || m.Dst < 0 || m.Dst >= nodes) {
			return fmt.Errorf("wormhole: snapshot slot %d holds an invalid message %+v", i, m)
		}
	}
	nFree := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	e.freeSlots = make([]int32, nFree)
	for i := range e.freeSlots {
		s := int32(r.U32())
		if s < 0 || int(s) >= nSlots || e.slots[s].live {
			return fmt.Errorf("wormhole: snapshot free-list names slot %d, which is not a free slot", s)
		}
		e.freeSlots[i] = s
	}
	e.liveSlots = r.Int()

	nIn := r.Count(1 << 26)
	if nIn != len(e.in) {
		return fmt.Errorf("wormhole: snapshot has %d link VCs, engine has %d (topology/params mismatch)", nIn, len(e.in))
	}
	for i := range e.in {
		v := &e.in[i]
		v.head, v.count = 0, 0
		nb := r.Count(1 << 26)
		if r.Err() != nil {
			return r.Err()
		}
		if nb > int(e.depth) {
			return fmt.Errorf("wormhole: snapshot VC %d holds %d flits, buffer depth %d", i, nb, e.depth)
		}
		for j := 0; j < nb; j++ {
			s, seq := int32(r.U32()), int32(r.U32())
			if r.Err() != nil {
				return r.Err()
			}
			if err := e.liveSlot(s, "flit in VC", i); err != nil {
				return err
			}
			m := &e.slots[s].msg
			if seq < 0 || int(seq) >= m.Len {
				return fmt.Errorf("wormhole: snapshot VC %d holds flit %d of %d-flit message in slot %d", i, seq, m.Len, s)
			}
			e.pushFlit(int32(i), refAt(s, m, int(seq)))
		}
		v.phase = vcPhase(r.U8())
		v.outLink = topology.LinkID(r.I64())
		outVC, rcWait := r.Int(), r.Int()
		v.curSlot = int32(r.U32())
		if r.Err() != nil {
			return r.Err()
		}
		if v.phase > vcActive {
			return fmt.Errorf("wormhole: snapshot VC %d has invalid phase %d", i, v.phase)
		}
		if err := e.checkOut(v.outLink, outVC, "VC", i); err != nil {
			return err
		}
		v.outVC, v.rcWait = int32(outVC), int32(rcWait)
		if v.curSlot != noSlot {
			if err := e.liveSlot(v.curSlot, "current message of VC", i); err != nil {
				return err
			}
		}
	}
	for i := range e.credits {
		e.credits[i] = r.Int()
	}
	for i := range e.outOwner {
		o := int32(r.U32())
		if o < -1 || int(o) >= e.NumPorts() {
			return fmt.Errorf("wormhole: snapshot channel %d owner %d out of range", i, o)
		}
		e.outOwner[i] = o
	}

	nInj := r.Count(1 << 26)
	if nInj != len(e.inj) {
		return fmt.Errorf("wormhole: snapshot has %d injection ports, engine has %d", nInj, len(e.inj))
	}
	for i := range e.inj {
		p := &e.inj[i]
		nq := r.Count(1 << 26)
		if r.Err() != nil {
			return r.Err()
		}
		p.queue = p.queue[:0]
		p.head = 0
		for j := 0; j < nq; j++ {
			s := int32(r.U32())
			if err := e.liveSlot(s, "injection queue", i); err != nil {
				return err
			}
			p.queue = append(p.queue, s)
		}
		p.sent = r.Int()
		p.phase = vcPhase(r.U8())
		p.outLink = topology.LinkID(r.I64())
		p.outVC = r.Int()
		p.rcWait = r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if p.phase > vcActive {
			return fmt.Errorf("wormhole: snapshot injection port %d has invalid phase %d", i, p.phase)
		}
		if err := e.checkOut(p.outLink, p.outVC, "injection port", i); err != nil {
			return err
		}
		if nq > 0 && (p.sent < 0 || p.sent >= e.slots[p.queue[0]].msg.Len) {
			return fmt.Errorf("wormhole: snapshot injection port %d has sent %d flits of its front message", i, p.sent)
		}
	}

	nc := r.Count(1 << 26)
	if r.Err() != nil {
		return r.Err()
	}
	e.creditQueue = e.creditQueue[:0]
	e.creditHead = 0
	for i := 0; i < nc; i++ {
		pc := pendingCredit{ch: int32(r.U32()), at: r.I64()}
		if pc.ch < 0 || int(pc.ch) >= len(e.credits) {
			return fmt.Errorf("wormhole: snapshot credit for channel %d out of range", pc.ch)
		}
		e.creditQueue = append(e.creditQueue, pc)
	}

	hasRecovery := r.Bool()
	if hasRecovery != (e.recovery != nil) {
		return fmt.Errorf("wormhole: snapshot recovery=%v, engine recovery=%v (params mismatch)", hasRecovery, e.recovery != nil)
	}
	if hasRecovery {
		e.recovery.Aborts = r.I64()
		np := r.Count(1 << 26)
		if r.Err() != nil {
			return r.Err()
		}
		e.recovery.parked = e.recovery.parked[:0]
		for i := 0; i < np; i++ {
			ps := parkedSlot{slot: int32(r.U32()), readyAt: r.I64()}
			if err := e.liveSlot(ps.slot, "parked message", i); err != nil {
				return err
			}
			e.recovery.parked = append(e.recovery.parked, ps)
		}
	}

	e.activeCount = r.Int()
	na := r.Count(1 << 26)
	if na != len(e.active) {
		return fmt.Errorf("wormhole: snapshot active bitmap has %d words, engine has %d", na, len(e.active))
	}
	for i := range e.active {
		e.active[i] = r.U64()
	}

	e.FlitsMoved = r.I64()
	e.FlitsDelivered = r.I64()
	e.MsgsDelivered = r.I64()
	nl := r.Count(1 << 26)
	if nl != len(e.LinkFlits) {
		return fmt.Errorf("wormhole: snapshot has %d link slots, engine has %d", nl, len(e.LinkFlits))
	}
	for i := range e.LinkFlits {
		e.LinkFlits[i] = r.I64()
	}
	// Per-cycle scratch (busy flags, dirty lists, arrivals) is already empty
	// between cycles; nothing to restore.
	return r.Err()
}
