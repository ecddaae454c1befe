// Package baseline implements the comparison points the paper argues
// against, so the experiments can measure the claims of §4 and §6 rather
// than assume them:
//
//   - TokenCollectBunch is the "obvious solution" of §4.2: a copying
//     collector that acquires the write token of every live object before
//     copying it. It triggers exactly the memory-consistency actions the
//     BMX design avoids — every readable replica of every live object is
//     invalidated, disrupting the applications' working sets.
//
//   - StrongCollectAll is a Le Sergent-style collector (§9): objects are
//     kept strongly consistent and the entire address space is collected at
//     the same time, with every mutator stopped for the duration. Its pause
//     scales with the whole heap times the replication degree.
//
//   - RefCountSystem is a Bevan-style distributed reference-counting
//     collector (§6.1's comparator): increment/decrement messages instead
//     of idempotent reachability tables. Message loss corrupts counts,
//     producing premature frees (an inc lost) or permanent leaks (a dec
//     lost) — and reference counting cannot reclaim cycles at all.
package baseline

import (
	"bmx/internal/addr"
	"bmx/internal/cluster"
	"bmx/internal/core"
	"bmx/internal/dsm"
	"bmx/internal/simnet"
)

// TokenCollectBunch runs the §4.2 strawman on node nd's replica of bunch b:
// acquire the write token of every live object (GC-class traffic), then run
// the copying collection — which now owns, and therefore copies, everything
// live. All token acquisitions and the invalidations they trigger are
// attributed to the GC in the cluster stats ("dsm.acquire.w.gc",
// "dsm.invalidation.gc").
func TokenCollectBunch(nd *cluster.Node, b addr.BunchID) (core.CollectStats, error) {
	col := nd.Collector()
	for _, o := range col.LiveOIDs(b) {
		if err := nd.AcquireAsCollector(cluster.Ref{OID: o}, dsm.ModeWrite); err != nil {
			return core.CollectStats{}, err
		}
	}
	return nd.CollectBunch(b), nil
}

// StrongStats summarizes a stop-the-world strong-consistency collection.
type StrongStats struct {
	PauseTicks    uint64 // every mutator is stopped for the whole duration
	TokenAcquires int64
	Invalidations int64
	Collected     core.CollectStats
}

// StrongCollectAll collects the entire address space at the same time, the
// way §9 describes Le Sergent's collector: every node, every bunch, all
// mutators stopped, every live object pulled to a single strongly
// consistent copy before being moved. The returned pause covers the whole
// operation.
func StrongCollectAll(cl *cluster.Cluster) (StrongStats, error) {
	var st StrongStats
	stats := cl.Stats()
	acq0 := stats.Get("dsm.acquire.w.gc")
	inv0 := stats.Get("dsm.invalidation.gc")
	pause := simnet.StartWatch(cl.Clock())
	for i := 0; i < cl.Nodes(); i++ {
		nd := cl.Node(i)
		for _, b := range nd.Collector().MappedBunches() {
			for _, o := range nd.Collector().LiveOIDs(b) {
				if err := nd.AcquireAsCollector(cluster.Ref{OID: o}, dsm.ModeWrite); err != nil {
					return st, err
				}
			}
			cs := nd.CollectBunch(b)
			st.Collected.LiveStrong += cs.LiveStrong
			st.Collected.LiveWeak += cs.LiveWeak
			st.Collected.Dead += cs.Dead
			st.Collected.Copied += cs.Copied
			st.Collected.Scanned += cs.Scanned
		}
		// Strong consistency: reachability information is synchronized
		// eagerly, not in the background.
		cl.Run(0)
	}
	st.PauseTicks = pause.Elapsed()
	st.TokenAcquires = stats.Get("dsm.acquire.w.gc") - acq0
	st.Invalidations = stats.Get("dsm.invalidation.gc") - inv0
	return st, nil
}
