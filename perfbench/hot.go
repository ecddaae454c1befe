package main

import (
	"fmt"
	"math/rand"

	"bmx"
)

// hot-objects: 3 simulated nodes share a rooted web graph read-only; a
// Zipf-skewed closed loop of reads (80%) and writes (20%) from a mutator
// node that rotates every rotateEvery ops. Most ops find the token cached,
// so the cluster entry path and dsm transfers dominate.
const (
	hotNodes       = 3
	hotObjectCount = 2000
	hotOutDegree   = 3
	hotZipfS       = 1.2
	hotWriteFrac   = 0.2
	hotRotateEvery = 50
	hotOpsPerRound = 2000
	hotWarmup      = 2
	// hotRoundsPerSecond sizes the timed window (see roundsPerSecond).
	hotRoundsPerSecond = 5.5
)

type hotObjects struct {
	seed int64
	rng  *rand.Rand
	zipf *rand.Zipf
	cl   *bmx.Cluster
	b    bmx.BunchID
	web  *web
	// rank maps a Zipf rank to an object index, so the hot head is spread
	// over the graph rather than being its first-allocated objects.
	rank []int
	op   int64
}

func newHotObjects(seed int64) *hotObjects { return &hotObjects{seed: seed} }

func (h *hotObjects) traits() traits           { return traits{simnet: true} }
func (h *hotObjects) stats() []*bmx.Stats      { return []*bmx.Stats{h.cl.Stats()} }
func (h *hotObjects) warmupRounds() int        { return hotWarmup }
func (h *hotObjects) roundsPerSecond() float64 { return hotRoundsPerSecond }
func (h *hotObjects) close()                   {}
func (h *hotObjects) afterRound(d *driver)     {}
func (h *hotObjects) report(res *result, d *driver) {
	reportNoDeaths(res)
	res.addLayer("mem.mapped_words_per_live_word", "ratio", mappedPerLive(clusterNodes(h.cl), d), true, "")
}
func (h *hotObjects) check(d *driver) []string {
	return append(h.web.readBack(h.cl.Node(0)), invariants(h.cl)...)
}

func (h *hotObjects) setup() error {
	h.rng = rand.New(rand.NewSource(h.seed))
	h.cl = bmx.New(bmx.Config{Nodes: hotNodes})
	n0 := h.cl.Node(0)
	h.b = n0.NewBunch()
	var err error
	if h.web, err = buildWeb(n0, h.b, hotObjectCount, hotOutDegree, h.rng); err != nil {
		return err
	}
	for i := 1; i < hotNodes; i++ {
		if err := h.web.share(h.cl.Node(i), h.web.objs); err != nil {
			return err
		}
	}
	h.cl.Run(0)
	h.rank = h.rng.Perm(hotObjectCount)
	h.zipf = rand.NewZipf(h.rng, hotZipfS, 1, hotObjectCount-1)
	return nil
}

func (h *hotObjects) round(d *driver) error {
	for i := 0; i < hotOpsPerRound; i++ {
		n := h.cl.Node(int(h.op/hotRotateEvery) % hotNodes)
		h.op++
		idx := h.rank[h.zipf.Uint64()]
		if h.rng.Float64() < hotWriteFrac {
			h.web.writeOp(d, n, idx, h.rng.Uint64())
		} else {
			h.web.readOp(d, n, idx)
		}
	}
	for i := 0; i < hotNodes; i++ {
		d.collect(h.cl.Node(i), h.b)
	}
	d.drain(h.cl)
	return nil
}

// reportNoDeaths marks the reclaim-lag metrics absent on workloads whose
// objects never die.
func reportNoDeaths(res *result) {
	res.addBoth("reclaim_rounds_p50", "rounds", 0, false, "")
	res.addBoth("reclaim_rounds_p90", "rounds", 0, false, "")
}

func clusterNodes(cl *bmx.Cluster) []*bmx.Node {
	out := make([]*bmx.Node, cl.Nodes())
	for i := range out {
		out[i] = cl.Node(i)
	}
	return out
}

// mappedPerLive is the mapped segment words over the live words, summed
// over nodes; a node's live words are the words its latest collection
// scanned.
func mappedPerLive(nodes []*bmx.Node, d *driver) float64 {
	var mapped, live int
	for _, n := range nodes {
		h := n.Collector().Heap()
		mapped += len(h.Segments()) * h.Allocator().SegWords()
		live += d.lastScanned[n.ID()]
	}
	return ratio(float64(mapped), float64(live))
}

// invariants runs the cluster-wide protocol and GC audit.
func invariants(cl *bmx.Cluster) []string {
	var out []string
	for _, v := range cl.CheckInvariants() {
		out = append(out, "invariant: "+v)
	}
	return out
}

// web is a rooted web graph: every object has outDegree link fields and
// one payload word, and every object is reachable from the root. last is
// the driver's last write to each payload, the value every read must see.
type web struct {
	objs []bmx.Ref
	last []uint64
	pay  int // payload field index
}

func buildWeb(n *bmx.Node, b bmx.BunchID, objects, outDegree int, rng *rand.Rand) (*web, error) {
	w := &web{objs: make([]bmx.Ref, objects), last: make([]uint64, objects), pay: outDegree}
	for i := range w.objs {
		o, err := n.Alloc(b, outDegree+1)
		if err != nil {
			return nil, fmt.Errorf("build web: %w", err)
		}
		w.objs[i] = o
		w.last[i] = rng.Uint64()
		if err := n.WriteWord(o, w.pay, w.last[i]); err != nil {
			return nil, fmt.Errorf("build web: %w", err)
		}
	}
	n.AddRoot(w.objs[0])
	for i, o := range w.objs {
		// Field 0 links from the previous object (a spanning chain, so
		// the whole graph is reachable); the rest link anywhere.
		if i > 0 {
			if err := n.WriteRef(w.objs[i-1], 0, o); err != nil {
				return nil, fmt.Errorf("build web: %w", err)
			}
		}
		for f := 1; f < outDegree; f++ {
			if err := n.WriteRef(o, f, w.objs[rng.Intn(objects)]); err != nil {
				return nil, fmt.Errorf("build web: %w", err)
			}
		}
	}
	return w, nil
}

// share takes a read token on every object in objs at n.
func (w *web) share(n *bmx.Node, objs []bmx.Ref) error {
	for _, o := range objs {
		if err := n.AcquireRead(o); err != nil {
			return fmt.Errorf("share %v at %v: %w", o, n.ID(), err)
		}
		n.Release(o)
	}
	return nil
}

// readOp is one read op: acquire a read token, read the payload, check it
// against the driver's last write, release.
func (w *web) readOp(d *driver, n *bmx.Node, idx int) {
	t0, op := d.beginOp()
	o := w.objs[idx]
	err := d.acquire(n, o, bmx.ModeRead, op)
	if err == nil {
		var v uint64
		v, err = d.readWord(n, o, w.pay, op)
		if err == nil && v != w.last[idx] {
			err = fmt.Errorf("read %v at %v: got %d, want %d", o, n.ID(), v, w.last[idx])
		}
		d.release(n, o, op)
	}
	d.endOp(t0, op, err)
}

// writeOp is one write op: acquire the write token, write the payload,
// release.
func (w *web) writeOp(d *driver, n *bmx.Node, idx int, v uint64) {
	t0, op := d.beginOp()
	o := w.objs[idx]
	err := d.acquire(n, o, bmx.ModeWrite, op)
	if err == nil {
		if err = d.writeWord(n, o, w.pay, v, op); err == nil {
			w.last[idx] = v
		}
		d.release(n, o, op)
	}
	d.endOp(t0, op, err)
}

// readBack reads every object at n and compares it with the last write.
func (w *web) readBack(n *bmx.Node) []string {
	var bad []string
	for i, o := range w.objs {
		if err := n.AcquireRead(o); err != nil {
			bad = append(bad, fmt.Sprintf("read-back acquire %v: %v", o, err))
			continue
		}
		v, err := n.ReadWord(o, w.pay)
		n.Release(o)
		if err != nil || v != w.last[i] {
			bad = append(bad, fmt.Sprintf("read-back %v: got %d (%v), want %d", o, v, err, w.last[i]))
		}
	}
	return bad
}
