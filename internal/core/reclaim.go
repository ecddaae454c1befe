package core

import (
	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/obs"
	"bmx/internal/transport"
)

// ReclaimStats summarizes a from-space reuse round (§4.5).
type ReclaimStats struct {
	Segments   int
	WordsFreed int
}

// ReclaimFromSpace runs the §4.5 protocol on this node's from-space
// segments of bunch b, making them fully reusable (here: freed). One round
// covers every from-space segment of the bunch:
//
//  1. Live objects still headquartered in a doomed segment are evacuated —
//     locally-owned ones are moved by this node; non-owned ones are copied
//     out by their owners ("asking the owner nodes to copy those live
//     objects still allocated in the from-space segment").
//  2. Every other holder of the bunch gets one address-change call naming
//     all the doomed segments, carrying the location updates it still
//     lacks. It performs the same evacuation for its own objects, rewrites
//     its references into the segments, and unmaps them ("informing all
//     other nodes affected by the address changes in this segment").
//  3. Once every reply is in, the segments are freed: no live object and no
//     forwarding pointer anybody needs remains.
//
// Until this protocol runs, from-space segments stay mapped: the paper notes
// a from-space segment is only reused once the to-space fills, and until
// then forwarding pointers keep working.
func (c *Collector) ReclaimFromSpace(b addr.BunchID) ReclaimStats {
	rep, ok := c.reps[b]
	if !ok {
		return ReclaimStats{}
	}
	var ids []addr.SegID
	for _, id := range rep.fromSegs {
		if s := c.heap.Seg(id); s != nil && s != rep.allocSeg {
			ids = append(ids, id)
		}
	}
	rep.fromSegs = nil
	if len(ids) == 0 {
		return ReclaimStats{}
	}
	doomed := c.doomedSet(ids)

	// 1. Evacuate every live object whose canonical address is doomed.
	c.evacuate(doomed)

	// The current location of every object placed in a doomed segment that
	// now lives elsewhere. Only the creator allocates into a segment, so
	// the initiator's object maps are complete.
	var moved []dsm.Manifest
	for _, s := range doomed.segs {
		for _, a := range s.Objects() {
			if m, ok := c.manifestOf(c.heap.ObjOID(a)); ok && !doomed.contains(m.Addr) {
				moved = append(moved, m)
			}
		}
	}

	// 2. One synchronous address-change call per holder, covering every
	// doomed segment. If any holder is unreachable (e.g. across a
	// partition) the round is aborted: every doomed segment goes back on
	// the from-space list and stays mapped — forwarding pointers keep
	// working, exactly the state §4.5 allows between a flip and reuse —
	// and a later ReclaimFromSpace retries. Holders that already processed
	// the round reprocess it then; evacuation and unmapping are
	// idempotent, so the retry is safe.
	for _, peer := range c.dir.Holders(b) {
		if peer == c.node {
			continue
		}
		pending := c.TakePendingManifests(peer)
		ms := mergeManifests(pending, moved)
		bytes := 8 + 8*len(ids)
		for _, m := range ms {
			bytes += m.WireBytes()
		}
		if _, err := c.net.Call(transport.Msg{
			From: c.node, To: peer, Kind: KindAddrChange, Class: transport.ClassGC,
			Payload: AddrChangeMsg{From: c.node, Bunch: b, Segs: ids, Manifests: ms},
			Bytes:   bytes,
		}); err != nil {
			c.requeueLocations(peer, pending)
			c.stats().Add("core.reclaim.aborted", 1)
			rep.fromSegs = append(rep.fromSegs, ids...)
			return ReclaimStats{}
		}
		c.stats().Add("core.reclaim.rounds", 1)
	}

	// 3. Free the segments locally, then in the directory: until
	// RemoveSegment the directory's placement ledger still identifies
	// stale words into them.
	c.forgetDoomed(doomed)
	var st ReclaimStats
	for _, s := range doomed.segs {
		c.dir.RemoveSegment(b, s.Meta.ID)
		st.Segments++
		st.WordsFreed += s.Meta.Words
		c.stats().Add("core.reclaim.segments", 1)
		c.stats().Add("core.reclaim.words", int64(s.Meta.Words))
		c.rec.Emit(obs.Event{Kind: obs.KReclaimSeg, Class: obs.ClassGC, A: int64(s.Meta.Words)})
	}
	return st
}

// FromSpaceSegments reports the segments of b awaiting the reuse protocol.
func (c *Collector) FromSpaceSegments(b addr.BunchID) []addr.SegID {
	if rep, ok := c.reps[b]; ok {
		return append([]addr.SegID(nil), rep.fromSegs...)
	}
	return nil
}

// mergeManifests returns pending plus the first manifest of extra for each
// object pending does not already name.
func mergeManifests(pending, extra []dsm.Manifest) []dsm.Manifest {
	have := make(map[addr.OID]bool, len(pending))
	for _, m := range pending {
		have[m.OID] = true
	}
	out := append([]dsm.Manifest(nil), pending...)
	for _, m := range extra {
		if !have[m.OID] {
			have[m.OID] = true
			out = append(out, m)
		}
	}
	return out
}

// requeueLocations puts location updates taken for peer back on its queue
// after the message meant to carry them failed, unless a newer update for
// the same object was queued meanwhile.
func (c *Collector) requeueLocations(peer addr.NodeID, ms []dsm.Manifest) {
	if len(ms) == 0 {
		return
	}
	c.locMu.Lock()
	defer c.locMu.Unlock()
	q, ok := c.pending[peer]
	if !ok {
		q = make(map[addr.OID]dsm.Manifest, len(ms))
		c.pending[peer] = q
	}
	for _, m := range ms {
		if cur, ok := q[m.OID]; !ok || cur.Epoch < m.Epoch {
			q[m.OID] = m
		}
	}
}

// doomedSegs is the set of segments one §4.5 round frees.
type doomedSegs struct {
	alloc *mem.Allocator
	ids   []addr.SegID
	in    map[addr.SegID]bool
	// segs are the local replicas of the doomed segments mapped here.
	segs []*mem.Segment
}

func (c *Collector) doomedSet(ids []addr.SegID) doomedSegs {
	d := doomedSegs{alloc: c.dir.Allocator(), ids: ids, in: make(map[addr.SegID]bool, len(ids))}
	for _, id := range ids {
		d.in[id] = true
		if s := c.heap.Seg(id); s != nil {
			d.segs = append(d.segs, s)
		}
	}
	return d
}

// contains reports whether a lies in a doomed segment.
func (d doomedSegs) contains(a addr.Addr) bool {
	id, ok := d.alloc.SegIDOf(a)
	return ok && d.in[id]
}

// evacuate rescues every object whose local canonical address lies in a
// doomed segment: owned objects are moved locally; non-owned ones are
// copied out by their owners, in one batch per owner.
func (c *Collector) evacuate(d doomedSegs) {
	var mine, theirs []addr.OID
	for _, s := range d.segs {
		for _, a := range s.Objects() {
			if c.heap.Forwarded(a) {
				continue
			}
			o := c.heap.ObjOID(a)
			can, ok := c.heap.Canonical(o)
			if !ok || can != a {
				continue // dead here, or already relocated
			}
			if c.dsm.IsOwner(o) {
				mine = append(mine, o)
			} else if c.dsm.Knows(o) {
				theirs = append(theirs, o)
			}
		}
	}
	for _, o := range mine {
		c.moveOwnedObject(o)
	}
	c.requestCopyOut(theirs)
}

// forgetDoomed removes every local trace of the doomed segments once their
// live objects are evacuated: references and forwarding pointers into them
// are rewritten to the objects' current addresses, canonical addresses
// still inside them are dropped, and the local replicas are unmapped.
func (c *Collector) forgetDoomed(d doomedSegs) {
	c.rewriteRefsInto(d)
	c.dropCanonicalsIn(d)
	c.heap.UnmapSegments(d.ids...)
}

// rewriteRefsInto rewrites, in one pass over the mapped heap, every pointer
// word into a doomed segment — and every forwarding pointer into one — to
// the current address of its object, so the doomed segments hold nothing
// anybody still needs (§4.5). Without the forwarding-pointer pass, a
// forwarding chain hopping through a doomed segment would dangle once it
// is unmapped. The doomed segments themselves are skipped: they are about
// to be unmapped.
func (c *Collector) rewriteRefsInto(d doomedSegs) {
	for _, id := range c.heap.Segments() {
		if d.in[id] {
			continue
		}
		s := c.heap.Seg(id)
		if s == nil {
			continue
		}
		base := s.Meta.Base
		for _, off := range s.RefWords() {
			a := base.AddWords(off)
			w := addr.Addr(c.heap.Word(a))
			if w.IsNil() || !d.contains(w) {
				continue
			}
			if r, ok := c.escapeDoomed(d, w); ok {
				c.heap.SetWord(a, uint64(r))
				c.stats().Add("core.reclaim.refsRewritten", 1)
			}
		}
		for _, h := range s.Objects() {
			if !c.heap.Forwarded(h) {
				continue
			}
			fwd := c.heap.Fwd(h)
			if !d.contains(fwd) {
				continue
			}
			if r, ok := c.escapeDoomed(d, fwd); ok {
				c.heap.SetFwd(h, r)
				c.stats().Add("core.reclaim.fwdsRewritten", 1)
			}
		}
	}
}

// escapeDoomed finds the current address of whatever w (inside a doomed
// segment) refers to: through the local forwarding pointer when one exists,
// or through the object's identity and the canonical map. The identity
// comes from the header under w or, when this replica never materialized
// that header, from the directory's placement ledger, which covers a
// segment until its round ends. Returns false when nothing better than w is
// known (then w is a reference inside stale garbage).
func (c *Collector) escapeDoomed(d doomedSegs, w addr.Addr) (addr.Addr, bool) {
	if r := c.heap.Resolve(w); r != w && !d.contains(r) {
		return r, true
	}
	oid := addr.NilOID
	if c.heap.Mapped(w) && c.heap.IsObjectAt(w) {
		oid = c.heap.ObjOID(w)
	} else if o, ok := c.dir.PlacementOID(w); ok {
		oid = o
	}
	if !oid.IsNil() {
		if can, ok := c.heap.Canonical(oid); ok {
			if can = c.heap.Resolve(can); can != w && !d.contains(can) {
				return can, true
			}
		}
	}
	c.stats().Add("core.reclaim.unresolved", 1)
	return addr.NilAddr, false
}

// dropCanonicalsIn forgets, in one pass over the known objects, canonical
// addresses still inside a doomed segment. Anything still there is stale:
// live objects were evacuated.
func (c *Collector) dropCanonicalsIn(d doomedSegs) {
	for _, o := range c.heap.KnownObjects() {
		a, ok := c.heap.Canonical(o)
		if !ok || !d.contains(a) {
			continue
		}
		c.heap.DropObject(o)
		if c.heap.IsObjectAt(a) && c.heap.ObjOID(a) != o {
			// The address was reused under a stale canonical: only the
			// pointer is bogus, the protocol state (ownership, copy-set,
			// entering ownerPtrs) is still real and still routes.
			continue
		}
		c.dsm.Forget(o)
		c.stats().Add("core.reclaim.staleDropped", 1)
	}
}
