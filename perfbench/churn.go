package main

import (
	"fmt"
	"math/rand"

	"bmx"
)

// gc-churn: 3 simulated nodes with a persistent mem store and group commit.
// A rooted base web (part of it read-replicated at the other nodes) plus a
// rolling window of generations: every round allocates and links one
// generation at node 0 and kills the oldest, so after warm-up the live set
// is flat. Part of each generation is read at another node before it dies,
// so reclaiming it takes the replica collectors and the scion cleaner's
// table messages. Every churnCycleEvery rounds a two-object cycle spanning
// two bunches is made and the previous one dropped; the group collector
// reclaims it.
const (
	churnNodes       = 3
	churnBase        = 3000
	churnShareFrac   = 0.2
	churnGen         = 100
	churnLifetime    = 10
	churnReplFrac    = 0.25
	churnBaseWrites  = 20
	churnCycleEvery  = 5
	churnCkptEvery   = 10
	churnWarmupExtra = 3
	// churnLiveBand is how far node 0's live object count may move from
	// its value at the end of warm-up: the rolling window keeps it within
	// a generation's birth and death plus the cycle's two objects.
	churnLiveBand = churnGen / 2
	// churnRoundsPerSecond sizes the timed window (see roundsPerSecond).
	churnRoundsPerSecond = 1.75
)

// generation is one round's objects: a chain whose head is rooted at node
// 0; each member also links a random earlier member. Dropping the root
// kills the whole generation.
type generation struct {
	objs []bmx.Ref
	last []uint64
}

type death struct {
	oid  bmx.OID
	died int
}

type gcChurn struct {
	seed   int64
	rng    *rand.Rand
	cl     *bmx.Cluster
	b, c   bmx.BunchID
	base   *web
	gens   []*generation
	cycle  []bmx.Ref // the current cross-bunch cycle, rooted at node 0
	round_ int
	// dying are killed objects some node still holds; lag collects the
	// rounds each took from death until no node held it.
	dying []death
	lag   samples
	// live is the live object count node 0's latest collection of b found;
	// liveRef is its value at the end of warm-up.
	live, liveRef int
}

func newGCChurn(seed int64) *gcChurn { return &gcChurn{seed: seed} }

func (g *gcChurn) traits() traits           { return traits{simnet: true, disk: true} }
func (g *gcChurn) stats() []*bmx.Stats      { return []*bmx.Stats{g.cl.Stats()} }
func (g *gcChurn) warmupRounds() int        { return churnLifetime + churnWarmupExtra }
func (g *gcChurn) roundsPerSecond() float64 { return churnRoundsPerSecond }
func (g *gcChurn) close()                   {}

func (g *gcChurn) setup() error {
	g.rng = rand.New(rand.NewSource(g.seed))
	g.cl = bmx.New(bmx.Config{Nodes: churnNodes, WithDisk: true, GroupCommit: true})
	n0 := g.cl.Node(0)
	g.b, g.c = n0.NewBunch(), n0.NewBunch()
	var err error
	if g.base, err = buildWeb(n0, g.b, churnBase, 3, g.rng); err != nil {
		return err
	}
	shared := g.base.objs[:int(churnShareFrac*churnBase)]
	for i := 1; i < churnNodes; i++ {
		if err := g.base.share(g.cl.Node(i), shared); err != nil {
			return err
		}
	}
	for i := 0; i < churnNodes; i++ {
		g.cl.Node(i).Sync()
	}
	g.cl.Run(0)
	return nil
}

func (g *gcChurn) round(d *driver) error {
	g.round_++
	r := g.round_
	n0 := g.cl.Node(0)
	// Allocate and link this round's generation at node 0. One op is one
	// object: alloc, payload write, chain link, cross link.
	gen := &generation{}
	for i := 0; i < churnGen; i++ {
		t0, op := d.beginOp()
		o, err := d.alloc(n0, g.b, 3, op)
		if err == nil {
			v := g.rng.Uint64()
			if err = d.writeWord(n0, o, 2, v, op); err == nil {
				gen.objs = append(gen.objs, o)
				gen.last = append(gen.last, v)
				if i == 0 {
					n0.AddRoot(o)
				} else {
					err = d.writeRef(n0, gen.objs[i-1], 0, o, op)
					if err == nil {
						err = d.writeRef(n0, o, 1, gen.objs[g.rng.Intn(i)], op)
					}
				}
			}
		}
		d.endOp(t0, op, err)
		if err != nil {
			return err
		}
	}
	g.gens = append(g.gens, gen)

	// Read-replicate part of the middle-aged generation at another node.
	if len(g.gens) > churnLifetime/2 {
		mid := g.gens[len(g.gens)-1-churnLifetime/2]
		n := g.cl.Node(1 + r%(churnNodes-1))
		w := &web{objs: mid.objs, last: mid.last, pay: 2}
		for i := range mid.objs {
			if g.rng.Float64() < churnReplFrac {
				w.readOp(d, n, i)
			}
		}
	}
	// Writes to the base graph at node 0 (some of it replicated).
	for i := 0; i < churnBaseWrites; i++ {
		g.base.writeOp(d, n0, g.rng.Intn(churnBase), g.rng.Uint64())
	}
	// The cross-bunch cycle: make a new one, drop the old.
	if r%churnCycleEvery == 0 {
		if err := g.newCycle(d); err != nil {
			return err
		}
	}
	// Kill the oldest generation once the window is full.
	if len(g.gens) > churnLifetime {
		old := g.gens[0]
		g.gens = g.gens[1:]
		n0.RemoveRoot(old.objs[0])
		for _, o := range old.objs {
			g.dying = append(g.dying, death{o.OID, r})
		}
	}

	// Collection phase.
	g.live = d.collect(n0, g.b).LiveStrong
	for i := 1; i < churnNodes; i++ {
		d.collect(g.cl.Node(i), g.b)
	}
	if r%churnCycleEvery == 0 {
		d.timed(spanCollectGroup, func() { n0.CollectGroup([]bmx.BunchID{g.b, g.c}) })
	}
	for i := 0; i < churnNodes; i++ {
		n := g.cl.Node(i)
		d.timed(spanReclaim, func() { n.ReclaimFromSpace(g.b) })
	}
	for i := 0; i < churnNodes; i++ {
		d.timed(spanSync, g.cl.Node(i).Sync)
	}
	if r%churnCkptEvery == 0 {
		for i := 0; i < churnNodes; i++ {
			n := g.cl.Node(i)
			var err error
			d.timed(spanCheckpoint, func() { err = n.Checkpoint(g.b) })
			if err != nil {
				return fmt.Errorf("checkpoint at %v: %w", n.ID(), err)
			}
		}
	}
	d.drain(g.cl)
	return nil
}

// newCycle allocates a ↔ c with a in the main bunch and c in the cycle
// bunch, roots a, and unroots the previous cycle, which is then garbage
// only a group collection over both bunches can reclaim.
func (g *gcChurn) newCycle(d *driver) error {
	n0 := g.cl.Node(0)
	t0, op := d.beginOp()
	a, err := d.alloc(n0, g.b, 3, op)
	var c bmx.Ref
	if err == nil {
		c, err = d.alloc(n0, g.c, 3, op)
	}
	if err == nil {
		n0.AddRoot(a)
		err = d.writeRef(n0, a, 0, c, op)
	}
	if err == nil {
		err = d.writeRef(n0, c, 0, a, op)
	}
	d.endOp(t0, op, err)
	if err != nil {
		return err
	}
	if g.cycle != nil {
		n0.RemoveRoot(g.cycle[0])
		for _, o := range g.cycle {
			g.dying = append(g.dying, death{o.OID, g.round_})
		}
	}
	g.cycle = []bmx.Ref{a, c}
	return nil
}

// afterRound records the reclaim lag of every killed object no node holds
// any more, and checks that the timed rounds keep the live set flat: node
// 0's collector must find as many live objects as at the end of warm-up,
// within churnLiveBand.
func (g *gcChurn) afterRound(d *driver) {
	keep := g.dying[:0]
	for _, x := range g.dying {
		if g.held(x.oid) {
			keep = append(keep, x)
		} else if d.timing {
			g.lag = append(g.lag, float64(g.round_-x.died+1))
		}
	}
	g.dying = keep
	if !d.timing {
		g.liveRef = g.live
	} else if g.live < g.liveRef-churnLiveBand || g.live > g.liveRef+churnLiveBand {
		d.fail("live set not flat: node 0 found %d live objects in round %d, %d at the end of warm-up", g.live, g.round_, g.liveRef)
	}
}

func (g *gcChurn) held(o bmx.OID) bool {
	for i := 0; i < churnNodes; i++ {
		if _, ok := g.cl.Node(i).Collector().Heap().Canonical(o); ok {
			return true
		}
	}
	return false
}

func (g *gcChurn) check(d *driver) []string {
	bad := invariants(g.cl)
	n0 := g.cl.Node(0)
	bad = append(bad, g.base.readBack(n0)...)
	for _, gen := range g.gens {
		w := &web{objs: gen.objs, last: gen.last, pay: 2}
		bad = append(bad, w.readBack(n0)...)
	}
	// Nothing killed more than a lifetime ago may still be held anywhere.
	for _, x := range g.dying {
		if g.round_-x.died > churnLifetime {
			bad = append(bad, fmt.Sprintf("object %v killed in round %d still held in round %d", x.oid, x.died, g.round_))
			break
		}
	}
	return bad
}

func (g *gcChurn) report(res *result, d *driver) {
	res.addBoth("reclaim_rounds_p50", "rounds", g.lag.quantile(0.5), true, fmt.Sprintf("n=%d", len(g.lag)))
	res.addBoth("reclaim_rounds_p90", "rounds", g.lag.quantile(0.9), true, fmt.Sprintf("n=%d", len(g.lag)))
	res.addLayer("mem.mapped_words_per_live_word", "ratio", mappedPerLive(clusterNodes(g.cl), d), true, "")
}
