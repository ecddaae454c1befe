package main

import (
	"fmt"
	"time"

	"bmx"
)

// workload is one generated load. setup builds the world the run measures
// (graph build, sharing, mesh connect); round runs one round of mutator ops
// followed by that round's collection phase. The driver calls everything
// from one goroutine.
type workload interface {
	setup() error
	close()
	warmupRounds() int
	// roundsPerSecond is the rate the workload ran at on the reference
	// machine; it turns -seconds into the timed window's round count.
	roundsPerSecond() float64
	round(d *driver) error
	// afterRound does the round's untimed bookkeeping (reclaim tracking).
	afterRound(d *driver)
	traits() traits
	// stats lists every counter registry the world keeps (one per cluster).
	stats() []*bmx.Stats
	// check runs the end-of-run correctness checks and returns every
	// failure found.
	check(d *driver) []string
	// report adds the workload's own metrics to the result.
	report(res *result, d *driver)
}

// driver runs a workload in a closed loop and keeps its measurements.
// Latency samples come from untraced timed rounds only; spans and the
// per-layer allocation counts come from traced rounds only.
type driver struct {
	tr     *tracer // non-nil only while a traced round runs
	traced *tracer // the run's span store
	timing bool    // inside the timed window
	rt     *goRuntime

	ops, failed int64
	failures    []string

	opLat      samples // µs, one per op
	collectLat samples // ms, one per CollectBunch call

	// Whole-window counts.
	rounds, allCollects int64
	writes              int64
	drains, drained     int64

	// Probe traffic (tcp-writes' control pings) sent in the timed window,
	// and the time it took; both are taken out of the program's figures.
	probeMsgs, probeBytes int64
	probeWall             time.Duration

	// Traced-round accumulators. Local ops are those that made no remote
	// acquire: their allocations are the cluster entry path's own.
	localOps, localOpAllocs   int64
	pings, pingAllocs         int64
	collects, collectAllocs   int64
	collectGCMsgs             int64
	copiedWords, scannedWords int64
	collectDead, collectTrace int64

	curRound  int32
	opAllocs0 uint64 // Go allocations when the traced op began
	opRemote  bool   // the traced op made a remote acquire
	heapPeak  uint64
	heapLive  uint64 // after a full collection at the end of the window
	// lastScanned is each node's latest collection's scanned words, the
	// stand-in for its live words.
	lastScanned map[bmx.NodeID]int
	stats       func() []*bmx.Stats
}

func newDriver() *driver {
	return &driver{rt: newGoRuntime(), lastScanned: map[bmx.NodeID]int{}}
}

// fail records one failed operation or check.
func (d *driver) fail(format string, args ...any) {
	d.failed++
	if len(d.failures) < 20 {
		d.failures = append(d.failures, fmt.Sprintf(format, args...))
	}
}

// beginOp opens one mutator op: its start time and, in a traced round,
// its op span.
func (d *driver) beginOp() (time.Time, int32) {
	if d.tr != nil {
		d.opRemote = false
		d.opAllocs0 = d.rt.allocs()
	}
	return time.Now(), d.tr.begin(spanOp, d.curRound)
}

// endOp closes an op opened by beginOp. A failed op counts as attempted.
func (d *driver) endOp(t0 time.Time, sp int32, err error) {
	if d.tr == nil && d.timing {
		d.opLat = append(d.opLat, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	d.tr.end(sp)
	if d.tr != nil && !d.opRemote {
		d.localOps++
		d.localOpAllocs += int64(d.rt.allocs() - d.opAllocs0)
	}
	d.ops++
	if err != nil {
		d.fail("op: %v", err)
	}
}

// acquire takes a token for one op. In a traced round the span is named
// by whether the node already held a sufficient mode (a cached acquire in
// the cluster layer) or had to fetch the token (a remote dsm acquire).
func (d *driver) acquire(n *bmx.Node, r bmx.Ref, mode bmx.Mode, op int32) error {
	if d.tr == nil {
		if mode == bmx.ModeWrite {
			return n.AcquireWrite(r)
		}
		return n.AcquireRead(r)
	}
	kind := spanAcquireCached
	if held := n.Mode(r); held < mode {
		d.opRemote = true
		kind = spanAcquireRemoteRead
		if mode == bmx.ModeWrite {
			kind = spanAcquireRemoteWrite
		}
	}
	sp := d.tr.begin(kind, op)
	var err error
	if mode == bmx.ModeWrite {
		err = n.AcquireWrite(r)
	} else {
		err = n.AcquireRead(r)
	}
	d.tr.end(sp)
	return err
}

func (d *driver) readWord(n *bmx.Node, r bmx.Ref, i int, op int32) (uint64, error) {
	sp := d.tr.begin(spanReadWord, op)
	v, err := n.ReadWord(r, i)
	d.tr.end(sp)
	return v, err
}

func (d *driver) writeWord(n *bmx.Node, r bmx.Ref, i int, v uint64, op int32) error {
	sp := d.tr.begin(spanWriteWord, op)
	err := n.WriteWord(r, i, v)
	d.tr.end(sp)
	d.writes++
	return err
}

func (d *driver) release(n *bmx.Node, r bmx.Ref, op int32) {
	sp := d.tr.begin(spanRelease, op)
	n.Release(r)
	d.tr.end(sp)
}

func (d *driver) alloc(n *bmx.Node, b bmx.BunchID, size int, op int32) (bmx.Ref, error) {
	sp := d.tr.begin(spanAlloc, op)
	r, err := n.Alloc(b, size)
	d.tr.end(sp)
	return r, err
}

func (d *driver) writeRef(n *bmx.Node, obj bmx.Ref, i int, target bmx.Ref, op int32) error {
	sp := d.tr.begin(spanWriteRef, op)
	err := n.WriteRef(obj, i, target)
	d.tr.end(sp)
	return err
}

// collect runs one bunch collection at n, timing it as a round child.
func (d *driver) collect(n *bmx.Node, b bmx.BunchID) bmx.CollectStats {
	var gc0 int64
	var al0 uint64
	if d.tr != nil {
		gc0 = d.gcMsgs()
		al0 = d.rt.allocs()
	}
	sp := d.tr.begin(spanCollectReplica, d.curRound)
	t0 := time.Now()
	st := n.CollectBunch(b)
	el := time.Since(t0)
	d.tr.end(sp)
	if st.Copied > 0 {
		d.tr.relabel(sp, spanCollectOwner)
	}
	if d.timing && d.tr == nil {
		d.collectLat = append(d.collectLat, float64(el.Nanoseconds())/1e6)
	}
	d.lastScanned[n.ID()] = st.ScannedWords
	if d.timing {
		d.allCollects++
	}
	if d.tr != nil {
		d.collects++
		d.collectAllocs += int64(d.rt.allocs() - al0)
		d.collectGCMsgs += d.gcMsgs() - gc0
		d.copiedWords += int64(st.CopiedWords)
		d.scannedWords += int64(st.ScannedWords)
		d.collectDead += int64(st.Dead)
		d.collectTrace += int64(st.Dead + st.LiveStrong + st.LiveWeak)
	}
	return st
}

func (d *driver) gcMsgs() int64 {
	var n int64
	for _, st := range d.stats() {
		n += st.Get("msg.sent.gc")
	}
	return n
}

// timed runs call as a span of kind k under the current round.
func (d *driver) timed(k spanKind, call func()) {
	sp := d.tr.begin(k, d.curRound)
	call()
	d.tr.end(sp)
}

// drain delivers every queued background message of a simulated cluster.
func (d *driver) drain(cl *bmx.Cluster) {
	sp := d.tr.begin(spanDrain, d.curRound)
	n := cl.Run(0)
	d.tr.end(sp)
	if d.timing {
		d.drains++
		d.drained += int64(n)
	}
}

// sampleHeap records the Go heap in use at a round boundary.
func (d *driver) sampleHeap() {
	if h := d.rt.heapInUse(); h > d.heapPeak {
		d.heapPeak = h
	}
}
