// Package core implements the paper's primary contribution: the copying
// garbage collector for persistent distributed shared objects in weakly
// consistent DSM. It contains the three cooperating subalgorithms of §3:
//
//   - the bunch garbage collector (BGC, §4), which collects one local
//     replica of one bunch independently of every other bunch and of every
//     other replica of the same bunch, copying only locally-owned live
//     objects and merely scanning (possibly inconsistent) non-owned ones,
//     and never acquiring a token;
//   - the scion cleaner (§6), which consumes the idempotent reachability
//     tables produced by remote BGCs to retire dead scions and entering
//     ownerPtrs;
//   - the group garbage collector (GGC, §7), which collects a
//     locality-chosen group of co-mapped bunches at one site to reclaim
//     inter-bunch cycles.
//
// It also implements the from-space reuse protocol of §4.5 and the dsm.Hooks
// side of the three invariants of §5.
package core

import (
	"fmt"
	"slices"
	"sync"

	"bmx/internal/addr"
	"bmx/internal/mem"
)

// ObjInfo is the directory's record of one object: where it was allocated
// and by whom. The allocation site is the first owner and therefore a valid
// starting point for any ownerPtr chain.
type ObjInfo struct {
	OID       addr.OID
	Bunch     addr.BunchID
	Size      int
	AllocNode addr.NodeID
	AllocAddr addr.Addr
}

type bunchInfo struct {
	id      addr.BunchID
	creator addr.NodeID
	// replicas are nodes that explicitly mapped the bunch (§2.1).
	replicas map[addr.NodeID]bool
	// interested are nodes that cached some of the bunch's objects via
	// consistency traffic without mapping the whole bunch; they need
	// address-change rounds (§4.5) and reachability tables, but a
	// reference created at such a node still requires a scion-message to
	// a node actually mapping the bunch (§3.2).
	interested map[addr.NodeID]bool
	segs       []addr.SegID
}

// Directory is the cluster-wide metadata service — the role the paper gives
// the BMX-server (§8): allocation of non-overlapping segments, the
// bunch-to-segment map, the set of nodes holding a replica of each bunch,
// and the allocation records of objects. It holds no object *contents*;
// those live in per-node heaps and move only via protocol messages.
type Directory struct {
	mu        sync.Mutex
	alloc     *mem.Allocator
	bunches   map[addr.BunchID]*bunchInfo
	objects   map[addr.OID]ObjInfo
	nextBunch addr.BunchID
	nextOID   addr.OID
	// segObjs lists the objects allocated in each segment (the population
	// sharing one token under segment-grain consistency).
	segObjs map[addr.SegID][]addr.OID
	// ownerHint is the manager-side probable owner of each object (Li's
	// dynamic distributed manager keeps exactly this), updated whenever a
	// write token is granted. It only seeds ownerPtr chains when a node
	// has no local routing state; the chains themselves stay
	// authoritative.
	ownerHint map[addr.OID]addr.NodeID
	// placements maps every address an object has been placed at (its
	// allocation address and each to-space copy) to its identity. In the
	// real system object headers are part of segment memory and reach
	// every replica with the pages; in this simulation the directory
	// carries that knowledge, so a stale word in any replica still
	// identifies its object even when the header was never mapped
	// locally. A segment's entries live until the §4.5 round that frees it
	// ends with RemoveSegment.
	placements map[addr.Addr]addr.OID
}

// NewDirectory creates a directory drawing segments from alloc.
func NewDirectory(alloc *mem.Allocator) *Directory {
	return &Directory{
		alloc:      alloc,
		bunches:    make(map[addr.BunchID]*bunchInfo),
		objects:    make(map[addr.OID]ObjInfo),
		nextBunch:  1,
		nextOID:    1,
		segObjs:    make(map[addr.SegID][]addr.OID),
		ownerHint:  make(map[addr.OID]addr.NodeID),
		placements: make(map[addr.Addr]addr.OID),
	}
}

// Allocator returns the cluster segment allocator.
func (d *Directory) Allocator() *mem.Allocator { return d.alloc }

// NewBunch registers a bunch created (and initially replicated) at creator.
func (d *Directory) NewBunch(creator addr.NodeID) addr.BunchID {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextBunch
	d.nextBunch++
	d.bunches[id] = &bunchInfo{
		id:         id,
		creator:    creator,
		replicas:   map[addr.NodeID]bool{creator: true},
		interested: make(map[addr.NodeID]bool),
	}
	return id
}

func (d *Directory) bunch(b addr.BunchID) *bunchInfo {
	bi, ok := d.bunches[b]
	if !ok {
		panic(fmt.Sprintf("core: unknown bunch %v", b))
	}
	return bi
}

// Bunches returns every registered bunch, sorted.
func (d *Directory) Bunches() []addr.BunchID {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]addr.BunchID, 0, len(d.bunches))
	for b := range d.bunches {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// Creator returns the node that created bunch b.
func (d *Directory) Creator(b addr.BunchID) addr.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bunch(b).creator
}

// AddReplica records that node holds a replica of bunch b.
func (d *Directory) AddReplica(b addr.BunchID, node addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.bunch(b).replicas[node] = true
}

// RemoveReplica records that node dropped its replica of bunch b.
func (d *Directory) RemoveReplica(b addr.BunchID, node addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.bunch(b).replicas, node)
}

// Replicas returns the nodes holding a replica of bunch b, sorted.
func (d *Directory) Replicas(b addr.BunchID) []addr.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	out := make([]addr.NodeID, 0, len(bi.replicas))
	for n := range bi.replicas {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// HasReplica reports whether node explicitly mapped bunch b.
func (d *Directory) HasReplica(b addr.BunchID, node addr.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.bunch(b).replicas[node]
}

// AddInterested records that node caches some objects of bunch b without
// having mapped it.
func (d *Directory) AddInterested(b addr.BunchID, node addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	if !bi.replicas[node] {
		bi.interested[node] = true
	}
}

// Holders returns every node with any content of bunch b — explicit
// replicas plus interested parties — sorted. This is the fan-out set for
// location updates, reachability tables, and §4.5 address-change rounds.
func (d *Directory) Holders(b addr.BunchID) []addr.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	set := make(map[addr.NodeID]bool, len(bi.replicas)+len(bi.interested))
	for n := range bi.replicas {
		set[n] = true
	}
	for n := range bi.interested {
		set[n] = true
	}
	out := make([]addr.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// AddSegment allocates a fresh segment for bunch b.
func (d *Directory) AddSegment(b addr.BunchID) *mem.SegmentMeta {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.alloc.NewSegment(b)
	bi := d.bunch(b)
	bi.segs = append(bi.segs, m.ID)
	return m
}

// RemoveSegment detaches a reclaimed segment from its bunch and returns its
// address range to the allocator for recycling (§4.5: "the from-space
// segment can be fully reused or freed"). The placement ledger forgets the
// range: a stale word pointing into recycled memory must dangle (to be
// repaired by invariant 1 at the holder's next acquire), never resolve to
// whatever object lives there next.
func (d *Directory) RemoveSegment(b addr.BunchID, id addr.SegID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	for i, s := range bi.segs {
		if s != id {
			continue
		}
		bi.segs = append(bi.segs[:i], bi.segs[i+1:]...)
		if meta := d.alloc.Meta(id); meta != nil {
			// Placements are header addresses inside the range, so probing
			// each of its words forgets them in time proportional to the
			// segment, not to the whole ledger.
			for a := meta.Base; a < meta.Limit(); a = a.AddWords(1) {
				delete(d.placements, a)
			}
			delete(d.segObjs, id)
		}
		d.alloc.Free(id)
		return
	}
}

// Segments returns the current segments of bunch b, in allocation order.
func (d *Directory) Segments(b addr.BunchID) []*mem.SegmentMeta {
	d.mu.Lock()
	defer d.mu.Unlock()
	bi := d.bunch(b)
	out := make([]*mem.SegmentMeta, 0, len(bi.segs))
	for _, id := range bi.segs {
		out = append(out, d.alloc.Meta(id))
	}
	return out
}

// NewOID issues a cluster-unique object identifier.
func (d *Directory) NewOID() addr.OID {
	d.mu.Lock()
	defer d.mu.Unlock()
	o := d.nextOID
	d.nextOID++
	return o
}

// RegisterObject records the allocation of oid.
func (d *Directory) RegisterObject(info ObjInfo) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.objects[info.OID] = info
	d.placements[info.AllocAddr] = info.OID
	if meta := d.alloc.Lookup(info.AllocAddr); meta != nil {
		d.segObjs[meta.ID] = append(d.segObjs[meta.ID], info.OID)
	}
}

// DropObject removes an object's allocation record once it has been
// reclaimed everywhere. Unknown OIDs are ignored.
func (d *Directory) DropObject(o addr.OID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.objects, o)
}

// Object returns the allocation record of o.
func (d *Directory) Object(o addr.OID) (ObjInfo, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	info, ok := d.objects[o]
	return info, ok
}

// BunchOf returns the bunch an object was allocated in (NoBunch if
// unknown).
func (d *Directory) BunchOf(o addr.OID) addr.BunchID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if info, ok := d.objects[o]; ok {
		return info.Bunch
	}
	return addr.NoBunch
}

// SegmentPopulation returns the objects allocated in the segment containing
// a — the unit that shares one token under segment-grain consistency.
func (d *Directory) SegmentPopulation(a addr.Addr) []addr.OID {
	d.mu.Lock()
	defer d.mu.Unlock()
	meta := d.alloc.Lookup(a)
	if meta == nil {
		return nil
	}
	return append([]addr.OID(nil), d.segObjs[meta.ID]...)
}

// SetOwnerHint records the probable current owner of o (updated at every
// ownership transfer).
func (d *Directory) SetOwnerHint(o addr.OID, n addr.NodeID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.ownerHint[o] = n
}

// OwnerHintOf returns the probable owner of o: the last recorded transfer
// target, falling back to the allocation site.
func (d *Directory) OwnerHintOf(o addr.OID) addr.NodeID {
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, ok := d.ownerHint[o]; ok {
		return n
	}
	if info, ok := d.objects[o]; ok {
		return info.AllocNode
	}
	return addr.NoNode
}

// RecordPlacement records that object o was placed (allocated or copied)
// at address a.
func (d *Directory) RecordPlacement(a addr.Addr, o addr.OID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.placements[a] = o
}

// PlacementOID returns the object that was placed at a, if any ever was.
func (d *Directory) PlacementOID(a addr.Addr) (addr.OID, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	o, ok := d.placements[a]
	return o, ok
}

// ObjectCount returns the number of registered objects.
func (d *Directory) ObjectCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.objects)
}
