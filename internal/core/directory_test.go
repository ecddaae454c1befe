package core

import (
	"testing"
	"testing/quick"

	"bmx/internal/addr"
	"bmx/internal/mem"
)

func newDir() *Directory {
	return NewDirectory(mem.NewAllocator(64))
}

func TestDirectoryBunchLifecycle(t *testing.T) {
	d := newDir()
	b := d.NewBunch(2)
	if d.Creator(b) != 2 {
		t.Fatalf("creator = %v", d.Creator(b))
	}
	if !d.HasReplica(b, 2) || d.HasReplica(b, 0) {
		t.Fatal("creator must be the initial replica")
	}
	d.AddReplica(b, 0)
	if got := d.Replicas(b); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("replicas = %v", got)
	}
	d.RemoveReplica(b, 0)
	if d.HasReplica(b, 0) {
		t.Fatal("remove failed")
	}
	if bs := d.Bunches(); len(bs) != 1 || bs[0] != b {
		t.Fatalf("bunches = %v", bs)
	}
}

func TestDirectoryInterestedVsReplica(t *testing.T) {
	d := newDir()
	b := d.NewBunch(0)
	d.AddInterested(b, 1)
	if d.HasReplica(b, 1) {
		t.Fatal("interested must not be a replica")
	}
	if got := d.Holders(b); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("holders = %v", got)
	}
	// A node that is already a replica never becomes merely interested.
	d.AddInterested(b, 0)
	if got := d.Holders(b); len(got) != 2 {
		t.Fatalf("holders after replica-interested = %v", got)
	}
}

func TestDirectorySegments(t *testing.T) {
	d := newDir()
	b := d.NewBunch(0)
	m1 := d.AddSegment(b)
	m2 := d.AddSegment(b)
	if got := d.Segments(b); len(got) != 2 || got[0].ID != m1.ID || got[1].ID != m2.ID {
		t.Fatalf("segments = %v", got)
	}
	d.RemoveSegment(b, m1.ID)
	if got := d.Segments(b); len(got) != 1 || got[0].ID != m2.ID {
		t.Fatalf("segments after remove = %v", got)
	}
	d.RemoveSegment(b, m1.ID) // idempotent
}

func TestDirectoryObjects(t *testing.T) {
	d := newDir()
	b := d.NewBunch(1)
	m := d.AddSegment(b)
	oid := d.NewOID()
	d.RegisterObject(ObjInfo{OID: oid, Bunch: b, Size: 4, AllocNode: 1, AllocAddr: m.Base})
	info, ok := d.Object(oid)
	if !ok || info.Size != 4 || info.AllocNode != 1 {
		t.Fatalf("object = %+v, %v", info, ok)
	}
	if d.BunchOf(oid) != b {
		t.Fatalf("BunchOf = %v", d.BunchOf(oid))
	}
	if d.BunchOf(999) != addr.NoBunch {
		t.Fatal("unknown oid must map to NoBunch")
	}
	if d.ObjectCount() != 1 {
		t.Fatalf("count = %d", d.ObjectCount())
	}
	// Allocation is also a placement.
	if got, ok := d.PlacementOID(m.Base); !ok || got != oid {
		t.Fatalf("placement = %v, %v", got, ok)
	}
	// And the segment population lists it.
	if pop := d.SegmentPopulation(m.Base); len(pop) != 1 || pop[0] != oid {
		t.Fatalf("population = %v", pop)
	}
	d.DropObject(oid)
	if _, ok := d.Object(oid); ok {
		t.Fatal("drop failed")
	}
	d.DropObject(oid) // idempotent
}

func TestDirectoryOIDsUnique(t *testing.T) {
	d := newDir()
	seen := map[addr.OID]bool{}
	for i := 0; i < 100; i++ {
		o := d.NewOID()
		if seen[o] {
			t.Fatalf("duplicate OID %v", o)
		}
		seen[o] = true
	}
}

func TestDirectoryPlacements(t *testing.T) {
	d := newDir()
	d.RecordPlacement(0x1000, 7)
	d.RecordPlacement(0x2000, 7) // the object moved
	if o, ok := d.PlacementOID(0x1000); !ok || o != 7 {
		t.Fatal("old placement lost")
	}
	if o, ok := d.PlacementOID(0x2000); !ok || o != 7 {
		t.Fatal("new placement missing")
	}
	if _, ok := d.PlacementOID(0x3000); ok {
		t.Fatal("phantom placement")
	}

	// Freeing a segment forgets the placements inside its range, from its
	// first word to its last, and nothing else.
	b := d.NewBunch(0)
	s1, s2 := d.AddSegment(b), d.AddSegment(b)
	last := s1.Limit().AddWords(-1)
	d.RecordPlacement(s1.Base, 8)
	d.RecordPlacement(last, 9)
	d.RecordPlacement(s2.Base, 10)
	d.RemoveSegment(b, s1.ID)
	for _, a := range []addr.Addr{s1.Base, last} {
		if o, ok := d.PlacementOID(a); ok {
			t.Fatalf("placement %v -> %v survived its segment", a, o)
		}
	}
	if o, ok := d.PlacementOID(s2.Base); !ok || o != 10 {
		t.Fatal("placement in a neighbouring segment lost")
	}
	if o, ok := d.PlacementOID(0x1000); !ok || o != 7 {
		t.Fatal("placement outside every segment lost")
	}
}

func TestDirectoryUnknownBunchPanics(t *testing.T) {
	d := newDir()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown bunch")
		}
	}()
	d.Creator(42)
}

func TestDirectoryHoldersProperty(t *testing.T) {
	// Holders is always the union of replicas and interested, sorted and
	// duplicate-free.
	f := func(reps, ints []uint8) bool {
		d := newDir()
		b := d.NewBunch(0)
		want := map[addr.NodeID]bool{0: true}
		for _, r := range reps {
			n := addr.NodeID(r % 8)
			d.AddReplica(b, n)
			want[n] = true
		}
		for _, i := range ints {
			n := addr.NodeID(i % 8)
			d.AddInterested(b, n)
			want[n] = true
		}
		got := d.Holders(b)
		if len(got) != len(want) {
			return false
		}
		for i, n := range got {
			if !want[n] {
				return false
			}
			if i > 0 && got[i-1] >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
