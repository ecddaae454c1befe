package mem

import (
	"fmt"
	"sync"

	"bmx/internal/addr"
)

// Heap is one node's view of the shared address space: the set of segment
// replicas this node has mapped, plus the node-local canonical address of
// every object the node knows about. Canonical addresses legitimately differ
// across nodes between a bunch collection and the propagation of the
// location updates — that transient divergence is the heart of the paper.
//
// The heap is internally synchronized: h.mu guards the segment and canonical
// maps, and every segment replica carries its own lock (see Segment). This
// is what lets the parallel collector run its trace/copy/fixup phases with
// the node lock released while mutators keep operating on the same heap. The
// locking discipline is strict: h.mu is never held while a segment lock is
// taken in a way that could invert (segment-locked code never calls back
// into the heap maps), and no operation ever holds two segment locks
// (CopyObject stages through a buffer).
type Heap struct {
	alloc *Allocator
	mu    sync.RWMutex
	segs  map[addr.SegID]*Segment
	objs  map[addr.OID]addr.Addr // node-local canonical header address
}

// NewHeap creates an empty heap drawing segment metadata from alloc.
func NewHeap(alloc *Allocator) *Heap {
	return &Heap{
		alloc: alloc,
		segs:  make(map[addr.SegID]*Segment),
		objs:  make(map[addr.OID]addr.Addr),
	}
}

// Allocator returns the cluster allocator this heap draws from.
func (h *Heap) Allocator() *Allocator { return h.alloc }

// MapSegment creates a zeroed local replica of the segment described by m.
// Mapping an already-mapped segment returns the existing replica.
func (h *Heap) MapSegment(m *SegmentMeta) *Segment {
	h.mu.Lock()
	defer h.mu.Unlock()
	if s, ok := h.segs[m.ID]; ok {
		return s
	}
	s := newSegment(m)
	h.segs[m.ID] = s
	return s
}

// UnmapSegment drops the local replica of segment id and forgets the
// canonical addresses that pointed into it.
func (h *Heap) UnmapSegment(id addr.SegID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.segs[id]
	if !ok {
		return
	}
	for oid, a := range h.objs {
		if s.Contains(a) {
			delete(h.objs, oid)
		}
	}
	delete(h.segs, id)
}

// Seg returns the local replica of segment id, or nil if not mapped.
func (h *Heap) Seg(id addr.SegID) *Segment {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.segs[id]
}

// SegAt returns the local replica containing address a, or nil.
func (h *Heap) SegAt(a addr.Addr) *Segment {
	m := h.alloc.Lookup(a)
	if m == nil {
		return nil
	}
	return h.Seg(m.ID)
}

// Mapped reports whether the segment containing a is mapped locally.
func (h *Heap) Mapped(a addr.Addr) bool { return h.SegAt(a) != nil }

// Segments returns the IDs of all locally mapped segments.
func (h *Heap) Segments() []addr.SegID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]addr.SegID, 0, len(h.segs))
	for id := range h.segs {
		out = append(out, id)
	}
	return out
}

func (h *Heap) mustSeg(a addr.Addr) *Segment {
	s := h.SegAt(a)
	if s == nil {
		panic(fmt.Sprintf("mem: access to unmapped address %v", a))
	}
	return s
}

// Word reads the word at address a. The address must be mapped.
func (h *Heap) Word(a addr.Addr) uint64 {
	s := h.mustSeg(a)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.words[a.WordOff(s.Meta.Base)]
}

// SetWord writes the word at address a. The address must be mapped.
func (h *Heap) SetWord(a addr.Addr, v uint64) {
	s := h.mustSeg(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.words[a.WordOff(s.Meta.Base)] = v
}

// ---- Object layout -------------------------------------------------------

// Alloc bump-allocates an object of dataWords words with identity oid inside
// segment s, writing its header and object-map bit, and records its
// canonical address. It returns the header address, or false if the segment
// lacks space.
func (h *Heap) Alloc(s *Segment, oid addr.OID, dataWords int) (addr.Addr, bool) {
	a, ok := h.Reserve(s, oid, dataWords)
	if ok {
		h.SetCanonical(oid, a)
	}
	return a, ok
}

// Reserve is Alloc without recording the canonical address. A copying
// collector reserves the to-space slot, fills it, and only then publishes
// it, so a reader that does not hold the object's stripe never resolves the
// object to a half-copied slot.
func (h *Heap) Reserve(s *Segment, oid addr.OID, dataWords int) (addr.Addr, bool) {
	if dataWords < 0 {
		panic("mem: negative object size")
	}
	need := HeaderWords + dataWords
	s.mu.Lock()
	if s.Meta.Words-s.allocOff < need {
		s.mu.Unlock()
		return addr.NilAddr, false
	}
	a := s.Meta.Base.AddWords(s.allocOff)
	s.allocOff += need
	writeHeaderLocked(s, a, oid, dataWords)
	s.mu.Unlock()
	return a, true
}

// Materialize writes an object header (size and OID, no data) at an explicit
// address, used when a node learns an object's location from a manifest or a
// location update. The containing segment must be mapped. Materialize does
// not change the canonical address; callers decide that policy.
func (h *Heap) Materialize(a addr.Addr, oid addr.OID, dataWords int) {
	s := h.mustSeg(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	materializeLocked(s, a, oid, dataWords)
}

func materializeLocked(s *Segment, a addr.Addr, oid addr.OID, dataWords int) {
	off := a.WordOff(s.Meta.Base)
	if off+HeaderWords+dataWords > s.Meta.Words {
		panic(fmt.Sprintf("mem: materialize %v (%d words) overflows %v", oid, dataWords, s.Meta.ID))
	}
	if off+HeaderWords+dataWords > s.allocOff {
		// Keep the bump pointer past remotely allocated objects so a
		// later local allocation cannot overlap them.
		s.allocOff = off + HeaderWords + dataWords
	}
	writeHeaderLocked(s, a, oid, dataWords)
}

func writeHeaderLocked(s *Segment, a addr.Addr, oid addr.OID, dataWords int) {
	off := a.WordOff(s.Meta.Base)
	s.words[off] = uint64(uint32(dataWords))
	s.words[off+1] = uint64(oid)
	s.words[off+2] = 0
	s.objMap.Set(off)
}

// IsObjectAt reports whether a mapped object header exists at address a.
func (h *Heap) IsObjectAt(a addr.Addr) bool {
	s := h.SegAt(a)
	if s == nil {
		return false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.objMap.Get(a.WordOff(s.Meta.Base))
}

// ObjSize returns the data size in words of the object headed at a.
func (h *Heap) ObjSize(a addr.Addr) int { return int(uint32(h.Word(a))) }

// ObjOID returns the stable identity of the object headed at a.
func (h *Heap) ObjOID(a addr.Addr) addr.OID { return addr.OID(h.Word(a.AddWords(1))) }

// Forwarded reports whether the object headed at a has been copied, i.e.
// its header holds a forwarding pointer (§4.2).
func (h *Heap) Forwarded(a addr.Addr) bool { return h.Word(a)&flagForwarded != 0 }

// Fwd returns the forwarding pointer of the object headed at a (nil if the
// object has not been copied).
func (h *Heap) Fwd(a addr.Addr) addr.Addr {
	s := h.mustSeg(a)
	s.mu.RLock()
	defer s.mu.RUnlock()
	off := a.WordOff(s.Meta.Base)
	if s.words[off]&flagForwarded == 0 {
		return addr.NilAddr
	}
	return addr.Addr(s.words[off+2])
}

// SetFwd installs a forwarding pointer in the header of the object at a.
// This modification is strictly local and never requires a token (§4.2).
// The target word is published before the flag, under one lock hold, so a
// concurrent Resolve never observes the flag without the target.
func (h *Heap) SetFwd(a, to addr.Addr) {
	s := h.mustSeg(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	off := a.WordOff(s.Meta.Base)
	s.words[off+2] = uint64(to)
	s.words[off] |= flagForwarded
}

// ClearFwd removes the forwarding pointer (used when a from-space segment is
// reclaimed and the header deleted, §4.5).
func (h *Heap) ClearFwd(a addr.Addr) {
	s := h.mustSeg(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	off := a.WordOff(s.Meta.Base)
	s.words[off] &^= flagForwarded
	s.words[off+2] = 0
}

// Resolve follows forwarding pointers from a until it reaches an address
// whose object has not been copied, or whose forwarding target is not
// locally mapped. This is the mechanism behind the special pointer
// comparison operation of §4.2/§8.
func (h *Heap) Resolve(a addr.Addr) addr.Addr {
	for !a.IsNil() {
		s := h.SegAt(a)
		if s == nil {
			return a
		}
		s.mu.RLock()
		off := a.WordOff(s.Meta.Base)
		if !s.objMap.Get(off) || s.words[off]&flagForwarded == 0 {
			s.mu.RUnlock()
			return a
		}
		next := addr.Addr(s.words[off+2])
		s.mu.RUnlock()
		if next == a {
			return a
		}
		a = next
	}
	return a
}

// DataAddr returns the address of data word i of the object headed at a.
func (h *Heap) DataAddr(a addr.Addr, i int) addr.Addr { return a.AddWords(HeaderWords + i) }

// GetField reads data word i of the object headed at a.
func (h *Heap) GetField(a addr.Addr, i int) uint64 {
	s := h.mustSeg(a)
	s.mu.RLock()
	defer s.mu.RUnlock()
	off := checkFieldLocked(s, a, i)
	return s.words[off]
}

// SetField writes data word i of the object headed at a and records in the
// reference map whether the word now holds a pointer.
func (h *Heap) SetField(a addr.Addr, i int, v uint64, isRef bool) {
	s := h.mustSeg(a)
	s.mu.Lock()
	defer s.mu.Unlock()
	off := checkFieldLocked(s, a, i)
	s.words[off] = v
	if isRef {
		s.refMap.Set(off)
	} else {
		s.refMap.Clear(off)
	}
}

// IsRefField reports whether data word i of the object at a holds a pointer
// according to the reference map.
func (h *Heap) IsRefField(a addr.Addr, i int) bool {
	s := h.mustSeg(a)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.refMap.Get(checkFieldLocked(s, a, i))
}

// checkFieldLocked validates the field index against the object header and
// returns the word offset of the field. The segment lock must be held. The
// object's data words must lie in the same segment as its header (objects
// never straddle segments).
func checkFieldLocked(s *Segment, a addr.Addr, i int) int {
	hdr := a.WordOff(s.Meta.Base)
	size := int(uint32(s.words[hdr]))
	if i < 0 || i >= size {
		panic(fmt.Sprintf("mem: field %d out of range for object %v (%d words) at %v",
			i, addr.OID(s.words[hdr+1]), size, a))
	}
	return hdr + HeaderWords + i
}

// Refs returns the addresses stored in the pointer fields of the object at
// a, including nil ones, with their field indices. The whole read is one
// atomic snapshot of the object's pointer fields.
func (h *Heap) Refs(a addr.Addr) map[int]addr.Addr {
	s := h.mustSeg(a)
	s.mu.RLock()
	defer s.mu.RUnlock()
	hdr := a.WordOff(s.Meta.Base)
	size := int(uint32(s.words[hdr]))
	out := make(map[int]addr.Addr)
	for i := 0; i < size; i++ {
		off := hdr + HeaderWords + i
		if s.refMap.Get(off) {
			out[i] = addr.Addr(s.words[off])
		}
	}
	return out
}

// CopyObject copies the object headed at src to dst: header (fresh, not
// forwarded), data words and reference-map bits. Both addresses must be
// mapped, dst typically in a to-space segment. The source is staged through
// a buffer so the two segment locks are never held together (src and dst may
// even share a segment).
func (h *Heap) CopyObject(src, dst addr.Addr) {
	ss := h.mustSeg(src)
	ss.mu.RLock()
	hdr := src.WordOff(ss.Meta.Base)
	size := int(uint32(ss.words[hdr]))
	oid := addr.OID(ss.words[hdr+1])
	words := make([]uint64, size)
	refs := make([]bool, size)
	for i := 0; i < size; i++ {
		off := hdr + HeaderWords + i
		words[i] = ss.words[off]
		refs[i] = ss.refMap.Get(off)
	}
	ss.mu.RUnlock()

	ds := h.mustSeg(dst)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	materializeLocked(ds, dst, oid, size)
	doff := dst.WordOff(ds.Meta.Base)
	for i := 0; i < size; i++ {
		off := doff + HeaderWords + i
		ds.words[off] = words[i]
		if refs[i] {
			ds.refMap.Set(off)
		} else {
			ds.refMap.Clear(off)
		}
	}
}

// ObjectBytes returns the simulated wire size in bytes of the object at a
// (header plus data), used for message accounting.
func (h *Heap) ObjectBytes(a addr.Addr) int {
	return (HeaderWords + h.ObjSize(a)) * addr.WordBytes
}

// ---- Canonical addresses -------------------------------------------------

// Canonical returns this node's canonical address for oid.
func (h *Heap) Canonical(oid addr.OID) (addr.Addr, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	a, ok := h.objs[oid]
	return a, ok
}

// SetCanonical records a as this node's canonical address for oid.
func (h *Heap) SetCanonical(oid addr.OID, a addr.Addr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.objs[oid] = a
}

// DropObject forgets oid's canonical address (the object was reclaimed
// locally).
func (h *Heap) DropObject(oid addr.OID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.objs, oid)
}

// KnownObjects returns every OID with a canonical address on this node.
func (h *Heap) KnownObjects() []addr.OID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]addr.OID, 0, len(h.objs))
	for oid := range h.objs {
		out = append(out, oid)
	}
	return out
}

// OIDAt resolves the address a (following forwarding pointers) and returns
// the OID of the object headed there, or NilOID if no object is known at
// that address locally.
func (h *Heap) OIDAt(a addr.Addr) addr.OID {
	a = h.Resolve(a)
	if !h.IsObjectAt(a) {
		return addr.NilOID
	}
	return h.ObjOID(a)
}
