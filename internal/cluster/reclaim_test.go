package cluster

import (
	"slices"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/core"
)

// bunchSegs counts the segments of bunch b mapped in n's heap.
func bunchSegs(n *Node, b addr.BunchID) int {
	alloc := n.cl.Directory().Allocator()
	count := 0
	for _, id := range n.Collector().Heap().Segments() {
		if m := alloc.Meta(id); m != nil && m.Bunch == b {
			count++
		}
	}
	return count
}

// churnBunch keeps a flat live set in one bunch: each call allocates a
// rooted generation of linked objects at node 0, reads part of it at the
// other nodes, and kills the oldest generation once lifetime are alive.
type churnBunch struct {
	cl       *Cluster
	b        addr.BunchID
	gens     [][]Ref
	lifetime int
}

func (c *churnBunch) step(t *testing.T, size int) {
	t.Helper()
	n0 := c.cl.Node(0)
	gen := make([]Ref, size)
	for i := range gen {
		gen[i] = n0.MustAlloc(c.b, 2)
		if i == 0 {
			n0.AddRoot(gen[0])
		} else if err := n0.WriteRef(gen[i-1], 0, gen[i]); err != nil {
			t.Fatal(err)
		}
		if err := n0.WriteWord(gen[i], 1, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < c.cl.Nodes(); i++ {
		for _, o := range gen[:size/2] {
			if err := c.cl.Node(i).AcquireRead(o); err != nil {
				t.Fatal(err)
			}
			c.cl.Node(i).Release(o)
		}
	}
	c.gens = append(c.gens, gen)
	if len(c.gens) > c.lifetime {
		n0.RemoveRoot(c.gens[0][0])
		c.gens = c.gens[1:]
	}
}

// round collects b at every node, then runs the §4.5 round at every node.
func (c *churnBunch) round() {
	for i := 0; i < c.cl.Nodes(); i++ {
		c.cl.Node(i).CollectBunch(c.b)
		c.cl.Run(0)
	}
	for i := 0; i < c.cl.Nodes(); i++ {
		c.cl.Node(i).ReclaimFromSpace(c.b)
		c.cl.Run(0)
	}
}

// Under a flat live set, repeated collections plus §4.5 rounds keep the
// bunch's footprint flat: every from-space segment is freed, including the
// to-space segments a collection opened when its first one filled. None
// may stay mapped at any node or listed in the directory.
func TestReclaimKeepsSegmentCountBounded(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 4})
	c := &churnBunch{cl: cl, b: cl.Node(0).NewBunch(), lifetime: 4}
	for i := 1; i < cl.Nodes(); i++ {
		if err := cl.Node(i).MapBunch(c.b); err != nil {
			t.Fatal(err)
		}
	}
	const warm, rounds = 6, 30
	var dirAtWarm int
	heapAtWarm := make([]int, cl.Nodes())
	for r := 1; r <= rounds; r++ {
		c.step(t, 12)
		c.round()
		dir := len(cl.Directory().Segments(c.b))
		if r == warm {
			dirAtWarm = dir
			for i := range heapAtWarm {
				heapAtWarm[i] = bunchSegs(cl.Node(i), c.b)
			}
			continue
		}
		if r < warm {
			continue
		}
		// One generation's worth of slack: a round may open one more
		// to-space segment than the last depending on how objects pack.
		if dir > dirAtWarm+2 {
			t.Fatalf("round %d: directory lists %d segments of the bunch, %d after warm-up", r, dir, dirAtWarm)
		}
		for i := range heapAtWarm {
			if got := bunchSegs(cl.Node(i), c.b); got > heapAtWarm[i]+2 {
				t.Fatalf("round %d: node %d maps %d segments of the bunch, %d after warm-up", r, i, got, heapAtWarm[i])
			}
		}
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
	n0 := cl.Node(0)
	for _, gen := range c.gens {
		for i, o := range gen {
			if v, err := n0.ReadWord(o, 1); err != nil || v != uint64(i) {
				t.Fatalf("%v = %d, %v; want %d", o, v, err, i)
			}
		}
	}
}

// setupManySegments builds a bunch at node 0 whose live set spans several
// segments, replicated at every other node, and collects it at node 0 so
// that all those segments are from-space awaiting one §4.5 round.
func setupManySegments(t *testing.T, cl *Cluster) (addr.BunchID, []Ref) {
	t.Helper()
	n0 := cl.Node(0)
	b := n0.NewBunch()
	var objs []Ref
	for i := 0; i < 40; i++ {
		o := n0.MustAlloc(b, 4)
		n0.AddRoot(o)
		if err := n0.WriteWord(o, 1, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o)
	}
	for i := 1; i < cl.Nodes(); i++ {
		if err := cl.Node(i).MapBunch(b); err != nil {
			t.Fatal(err)
		}
	}
	n0.CollectBunch(b)
	cl.Run(0)
	if segs := n0.Collector().FromSpaceSegments(b); len(segs) < 3 {
		t.Fatalf("setup: want a round over at least 3 segments, have %v", segs)
	}
	return b, objs
}

// One §4.5 round sends exactly one address-change call to each other
// holder of the bunch, however many segments it frees.
func TestReclaimOneAddrChangePerHolder(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 2})
	b, objs := setupManySegments(t, cl)
	n0 := cl.Node(0)
	doomed := len(n0.Collector().FromSpaceSegments(b))
	before := cl.Stats().Get("msg.sent.kind." + core.KindAddrChange)
	st := n0.ReclaimFromSpace(b)
	sent := cl.Stats().Get("msg.sent.kind."+core.KindAddrChange) - before
	if st.Segments != doomed {
		t.Fatalf("freed %d of %d from-space segments", st.Segments, doomed)
	}
	if want := int64(cl.Nodes() - 1); sent != want {
		t.Fatalf("round over %d segments sent %d address-change calls, want one per holder (%d)", doomed, sent, want)
	}
	cl.Run(0)
	for i := 0; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		for j, o := range objs {
			if err := n.AcquireRead(o); err != nil {
				t.Fatalf("node %d acquire %v: %v", i, o, err)
			}
			if v, err := n.ReadWord(o, 1); err != nil || v != uint64(100+j) {
				t.Fatalf("node %d read %v = %d, %v", i, o, v, err)
			}
			n.Release(o)
		}
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}

// A holder cut off mid-round — after an earlier holder already processed
// the address change — aborts the whole round: every doomed segment goes
// back on the from-space list and stays in the directory. After the heal
// the retried round frees all of them, and every node still reads every
// object.
func TestReclaimPartitionRequeuesWholeBatch(t *testing.T) {
	cl := New(Config{Nodes: 3, SegWords: 64, Seed: 5})
	b, objs := setupManySegments(t, cl)
	n0 := cl.Node(0)
	batch := n0.Collector().FromSpaceSegments(b)
	dirBefore := len(cl.Directory().Segments(b))

	// Holders are called in node order: node 1 serves the round, node 2
	// is unreachable.
	cl.Partition(0, 2)
	if st := n0.ReclaimFromSpace(b); st.Segments != 0 {
		t.Fatalf("partitioned round freed %d segments", st.Segments)
	}
	if got := cl.Stats().Get("core.reclaim.participated"); got != 1 {
		t.Fatalf("node 1 served %d rounds before the abort, want 1", got)
	}
	if got := cl.Stats().Get("core.reclaim.aborted"); got != 1 {
		t.Fatalf("aborted rounds = %d, want 1", got)
	}
	requeued := n0.Collector().FromSpaceSegments(b)
	if !slices.Equal(requeued, batch) {
		t.Fatalf("requeued %v, want the whole batch %v", requeued, batch)
	}
	if got := len(cl.Directory().Segments(b)); got != dirBefore {
		t.Fatalf("directory lists %d segments after the abort, %d before", got, dirBefore)
	}

	cl.HealAll()
	st := n0.ReclaimFromSpace(b)
	if st.Segments != len(batch) {
		t.Fatalf("after heal the round freed %d of %d segments", st.Segments, len(batch))
	}
	if left := n0.Collector().FromSpaceSegments(b); len(left) != 0 {
		t.Fatalf("from-space segments left after heal: %v", left)
	}
	cl.Run(0)
	for i := 0; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		for _, id := range batch {
			if n.Collector().Heap().Seg(id) != nil {
				t.Fatalf("node %d still maps freed segment %v", i, id)
			}
		}
		for j, o := range objs {
			if err := n.AcquireRead(o); err != nil {
				t.Fatalf("node %d acquire %v: %v", i, o, err)
			}
			if v, err := n.ReadWord(o, 1); err != nil || v != uint64(100+j) {
				t.Fatalf("node %d read %v = %d, %v", i, o, v, err)
			}
			n.Release(o)
		}
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants: %v", bad)
	}
}
