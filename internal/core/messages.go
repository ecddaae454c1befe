package core

import (
	"fmt"
	"slices"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/mem"
	"bmx/internal/ssp"
	"bmx/internal/transport"
)

// GC message kinds. The cluster routes "gc.*" messages to the collector.
const (
	// KindScion creates the scion matching a freshly created inter-bunch
	// stub at a node mapping the target bunch (§3.2). Synchronous so the
	// new reference is never unprotected.
	KindScion = "gc.scion"
	// KindTable carries a BGC's rebuilt reachability snapshot to the scion
	// cleaner of another node (§4.3, §6.1). Asynchronous, idempotent,
	// loss-tolerant.
	KindTable = "gc.table"
	// KindLocFlush pushes queued location updates in the background
	// instead of waiting for consistency traffic (§4.4 tradeoff).
	KindLocFlush = "gc.locFlush"
	// KindCopyOut asks an object's owner to copy it out of a from-space
	// segment about to be reused (§4.5).
	KindCopyOut = "gc.copyOut"
	// KindAddrChange informs a replica holder of the address changes in the
	// from-space segments being reclaimed, and asks it to evacuate its own
	// objects and unmap its replicas of the segments (§4.5).
	KindAddrChange = "gc.addrChange"
	// KindDeadNotice tells an object's allocation site (the routing
	// anchor) that the owner reclaimed the object, so the forwarding stub
	// can be dropped. Best effort: a lost notice leaks one tiny stub.
	KindDeadNotice = "gc.deadNotice"
)

// LocFlushMsg is the payload of KindLocFlush.
type LocFlushMsg struct {
	From      addr.NodeID
	Manifests []dsm.Manifest
}

// DeadNoticeMsg is the payload of KindDeadNotice.
type DeadNoticeMsg struct {
	From addr.NodeID
	OIDs []addr.OID
}

// CopyOutReq is the payload of KindCopyOut.
type CopyOutReq struct {
	From addr.NodeID
	OIDs []addr.OID
}

// CopyOutReply reports the new locations of the objects the callee owned and
// copied, and routing hints for those it did not own.
type CopyOutReply struct {
	Manifests []dsm.Manifest
	NotOwned  map[addr.OID]addr.NodeID
}

// AddrChangeMsg is the payload of KindAddrChange: one §4.5 round's doomed
// segments of a bunch, and the location updates the receiver still needs
// (its pending queue plus the segments' relocated objects).
type AddrChangeMsg struct {
	From      addr.NodeID
	Bunch     addr.BunchID
	Segs      []addr.SegID
	Manifests []dsm.Manifest
}

// HandleCall serves synchronous GC requests routed from the network.
func (c *Collector) HandleCall(m transport.Msg) (any, int, error) {
	switch m.Kind {
	case KindScion:
		msg := m.Payload.(ssp.ScionMsg)
		c.installScion(msg.Scion)
		return nil, 8, nil
	case KindCopyOut:
		req := m.Payload.(CopyOutReq)
		rep := c.serveCopyOut(req)
		bytes := 8
		for _, mf := range rep.Manifests {
			bytes += mf.WireBytes()
		}
		return rep, bytes, nil
	case KindAddrChange:
		msg := m.Payload.(AddrChangeMsg)
		c.serveAddrChange(msg)
		return nil, 8, nil
	default:
		return nil, 0, fmt.Errorf("core: unknown call kind %q", m.Kind)
	}
}

// HandleAsync consumes background GC messages.
func (c *Collector) HandleAsync(m transport.Msg) {
	switch m.Kind {
	case KindTable:
		c.ApplyTable(m.Payload.(ssp.TableMsg))
	case KindLocFlush:
		msg := m.Payload.(LocFlushMsg)
		c.ApplyManifests(msg.Manifests, msg.From)
	case KindDeadNotice:
		msg := m.Payload.(DeadNoticeMsg)
		for _, o := range msg.OIDs {
			if c.dsm.IsRoutingOnly(o) {
				c.dsm.Forget(o)
				c.heap.DropObject(o)
				c.stats().Add("core.gc.routingStubsDropped", 1)
			}
		}
	}
}

// sendDeadNotices tells each manager which of its objects the owner just
// reclaimed.
func (c *Collector) sendDeadNotices(byManager map[addr.NodeID][]addr.OID) {
	for _, mgr := range sortedNodeIDs(byManager) {
		oids := byManager[mgr]
		slices.Sort(oids)
		c.net.Send(transport.Msg{
			From: c.node, To: mgr, Kind: KindDeadNotice, Class: transport.ClassGC,
			Payload: DeadNoticeMsg{From: c.node, OIDs: oids},
			Bytes:   8 + 8*len(oids),
		})
		c.stats().Add("core.deadNotices", 1)
	}
}

func sortedNodeIDs(m map[addr.NodeID][]addr.OID) []addr.NodeID {
	out := make([]addr.NodeID, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// installScion records an inter-bunch scion in the target bunch's table.
func (c *Collector) installScion(s ssp.InterScion) {
	c.Replica(s.TargetBunch).Table.AddInterScion(s)
	c.stats().Add("core.scions.installed", 1)
}

// serveCopyOut copies the requested objects this node owns out of their
// current location into this node's allocation space, exactly as a bunch
// collection would, and reports their new addresses (§4.5).
func (c *Collector) serveCopyOut(req CopyOutReq) CopyOutReply {
	rep := CopyOutReply{NotOwned: make(map[addr.OID]addr.NodeID)}
	for _, o := range req.OIDs {
		if !c.dsm.IsOwner(o) {
			rep.NotOwned[o] = c.dsm.OwnerPtrOf(o)
			continue
		}
		if man, ok := c.moveOwnedObject(o); ok {
			rep.Manifests = append(rep.Manifests, man)
		} else {
			rep.NotOwned[o] = addr.NoNode
		}
	}
	slices.SortFunc(rep.Manifests, func(a, b dsm.Manifest) int {
		switch {
		case a.OID < b.OID:
			return -1
		case a.OID > b.OID:
			return 1
		default:
			return 0
		}
	})
	return rep
}

// moveOwnedObject copies a locally-owned object into the current allocation
// segment of its bunch, installs the forwarding pointer, and queues location
// updates for every other replica holder, serialized against mutators and
// parallel GC workers by the object's stripe. It is the copying primitive
// used by the serial paths (copy-out service, segment evacuation).
func (c *Collector) moveOwnedObject(o addr.OID) (dsm.Manifest, bool) {
	defer c.LockObject(o)()
	return c.moveOwnedObjectLocked(o)
}

// moveOwnedObjectChecked is the parallel collector's copying primitive: it
// takes the object's stripe and re-validates the copy license under it. If
// an ownership transfer revoked the license since the trace barrier, the
// token (and the right to move the object) has left this node and the copy
// is skipped — the new owner's collector will move it.
func (c *Collector) moveOwnedObjectChecked(o addr.OID) (dsm.Manifest, bool) {
	defer c.LockObject(o)()
	c.copyMu.Lock()
	licensed := c.copyOwned[o]
	c.copyMu.Unlock()
	if !licensed {
		c.stats().Add("core.gc.copyRevoked", 1)
		return dsm.Manifest{}, false
	}
	return c.moveOwnedObjectLocked(o)
}

// moveOwnedObjectLocked does the actual copy. Callers hold o's stripe.
func (c *Collector) moveOwnedObjectLocked(o addr.OID) (dsm.Manifest, bool) {
	old, ok := c.heap.Canonical(o)
	if !ok || !c.heap.Mapped(old) || !c.heap.IsObjectAt(old) {
		return dsm.Manifest{}, false
	}
	if c.heap.ObjOID(old) != o {
		// The canonical address is stale: the segment under it was freed
		// (in a round this node missed, e.g. across a partition) and the
		// address range reused by a different object. Copying from here
		// would clone the resident's bytes under o's identity and plant a
		// forwarding pointer on the resident's header.
		c.stats().Add("core.gc.staleCanonical", 1)
		return dsm.Manifest{}, false
	}
	if c.heap.Forwarded(old) {
		// Already moved; report the current location.
		man, ok := c.manifestOf(o)
		return man, ok
	}
	b := c.dir.BunchOf(o)
	rep := c.Replica(b)
	size := c.heap.ObjSize(old)
	rep.segMu.Lock()
	if rep.allocSeg == nil || rep.allocSeg.FreeWords() < size+mem.HeaderWords {
		rep.allocSeg = c.newAllocSeg(b)
	}
	seg := rep.allocSeg
	rep.segMu.Unlock()
	// The to-space slot is published only after its fields are filled:
	// ReadWord and ReadRef resolve without the stripe.
	to, allocOK := c.heap.Reserve(seg, o, size)
	if !allocOK {
		return dsm.Manifest{}, false
	}
	for i := 0; i < size; i++ {
		c.heap.SetField(to, i, c.heap.GetField(old, i), c.heap.IsRefField(old, i))
	}
	c.heap.SetFwd(old, to)
	c.heap.SetCanonical(o, to)
	c.dir.RecordPlacement(to, o)
	c.locMu.Lock()
	c.locEpoch[o]++
	ep := c.locEpoch[o]
	c.locMu.Unlock()
	c.net.Clock().Advance(c.costs.CopyWordTick * uint64(size+mem.HeaderWords))
	c.queueLocation(o, b, to, size)
	c.stats().Add("core.gc.copied", 1)
	c.stats().Add("core.gc.copiedWords", int64(size+mem.HeaderWords))
	return dsm.Manifest{OID: o, Addr: to, Size: size, Bunch: b, Epoch: ep}, true
}

// serveAddrChange participates in another node's from-space reuse round
// (§4.5): apply the address changes, evacuate any of our own objects still
// resident in the doomed segments, rewrite local references into them, and
// unmap the local replicas.
func (c *Collector) serveAddrChange(msg AddrChangeMsg) {
	c.ApplyManifests(msg.Manifests, msg.From)
	doomed := c.doomedSet(msg.Segs)
	c.evacuate(doomed)
	c.forgetDoomed(doomed)
	c.stats().Add("core.reclaim.participated", 1)
}

// requestCopyOut asks the owners of the given objects to copy them into
// fresh space, following ownership hints for bounded rounds.
func (c *Collector) requestCopyOut(oids []addr.OID) {
	type target struct {
		node addr.NodeID
		oids []addr.OID
	}
	pendingOIDs := make(map[addr.OID]addr.NodeID, len(oids))
	for _, o := range oids {
		if t := c.dsm.OwnerPtrOf(o); t != addr.NoNode {
			pendingOIDs[o] = t
		}
	}
	for round := 0; round < 8 && len(pendingOIDs) > 0; round++ {
		byNode := make(map[addr.NodeID][]addr.OID)
		for o, t := range pendingOIDs {
			byNode[t] = append(byNode[t], o)
		}
		var targets []target
		for n, os := range byNode {
			slices.Sort(os)
			targets = append(targets, target{n, os})
		}
		slices.SortFunc(targets, func(a, b target) int {
			switch {
			case a.node < b.node:
				return -1
			case a.node > b.node:
				return 1
			default:
				return 0
			}
		})
		next := make(map[addr.OID]addr.NodeID)
		for _, t := range targets {
			if t.node == c.node {
				for _, o := range t.oids {
					c.moveOwnedObject(o)
				}
				continue
			}
			raw, err := c.net.Call(transport.Msg{
				From: c.node, To: t.node, Kind: KindCopyOut, Class: transport.ClassGC,
				Payload: CopyOutReq{From: c.node, OIDs: t.oids},
				Bytes:   8 + 8*len(t.oids),
			})
			if err != nil {
				c.stats().Add("core.copyOut.errors", 1)
				continue
			}
			rep := raw.(CopyOutReply)
			c.ApplyManifests(rep.Manifests, t.node)
			for o, hint := range rep.NotOwned {
				if hint != addr.NoNode && hint != c.node {
					next[o] = hint
				} else {
					c.stats().Add("core.copyOut.unresolved", 1)
				}
			}
			c.stats().Add("core.copyOut.msgs", 1)
		}
		pendingOIDs = next
	}
}
