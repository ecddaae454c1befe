package main

import (
	"fmt"
	"strings"
	"time"

	"bmx"
)

// traits says which layers a workload exercises, so metrics of layers it
// bypasses are reported as absent rather than as a misleading zero.
type traits struct {
	simnet bool // the simulated network (Cluster.Run drains)
	tcp    bool // real sockets between in-process peers
	disk   bool // persistent store with an RVM log
}

// hopHist is the owner-chain hop distribution summed over every observer.
type hopHist struct{ count, sum int64 }

func hopsSnapshot(stats []*bmx.Stats) hopHist {
	var h hopHist
	for _, st := range stats {
		s := st.Observer().Hist("dsm.acquire.hops").Snapshot()
		h.count += s.Count
		h.sum += s.Sum
	}
	return h
}

func (h hopHist) sub(prev hopHist) hopHist { return hopHist{h.count - prev.count, h.sum - prev.sum} }

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd fills the metrics a user of the system sees, from the untraced
// timed rounds (ops, wall) and the whole timed window's counter deltas.
func (r *result) endToEnd(d *driver, delta, total counters, rounds []roundTime) {
	// Ops over wall time summed across the untraced rounds, and quantiles
	// over every sample of the window: when the machine's speed shifts
	// within a run, pooled figures take the mix of phases, where a median
	// of per-round or per-slice figures would snap to one of them.
	var ops int64
	var wall time.Duration
	for _, rt := range rounds {
		if !rt.traced {
			ops += rt.ops
			wall += rt.wall
		}
	}
	n := func(s samples) string { return fmt.Sprintf("n=%d", len(s)) }
	// The wall-clock figures are printed with the end-to-end metrics but
	// are not gated: on a shared machine their spread over runs exceeds any
	// bound BENCHMARK.json may set (see README.md). So is the peak heap in
	// use, which depends on where the Go collector's cycle stands at each
	// round boundary; mem_live_mb is the steady memory figure.
	r.addBoth("ops_per_s", "1/s", ratio(float64(ops), wall.Seconds()), true, fmt.Sprintf("%d ops in %.2f s of untraced rounds", ops, wall.Seconds()))
	r.addBoth("op_p50_us", "us", d.opLat.quantile(0.50), true, n(d.opLat))
	r.addBoth("op_p99_us", "us", d.opLat.quantile(0.99), true, n(d.opLat)+tailNote(d.opLat, 0.99))
	r.addBoth("collect_p50_ms", "ms", d.collectLat.quantile(0.50), true, n(d.collectLat))
	r.addBoth("collect_p90_ms", "ms", d.collectLat.quantile(0.90), true, n(d.collectLat)+tailNote(d.collectLat, 0.90))
	r.addE2E("msgs_per_op", "msgs/op", ratio(float64(delta.msgs()), float64(d.ops)), "all classes")
	r.addE2E("bytes_per_op", "B/op", ratio(float64(delta.bytes()), float64(d.ops)), "all classes")
	r.addE2E("mem_live_mb", "MiB", float64(d.heapLive)/(1<<20), "Go heap live after a full collection at the end of the window")
	r.addBoth("mem_peak_mb", "MiB", float64(d.heapPeak)/(1<<20), true, "Go heap in use, round boundaries")
	r.addBoth("failed_op_ratio", "ratio", ratio(float64(r.failed), float64(max(r.attempted, 1))), true,
		fmt.Sprintf("%d of %d, warm-up included", r.failed, r.attempted))
	r.addBoth("recovery_uses", "count", float64(total.recoveries()), true,
		"route.exhausted + reestablished + route.cycleAvoided, whole run")
}

func tailNote(s samples, q float64) string {
	if s.tailOK(q) {
		return ""
	}
	return " (fewer than 10 samples beyond this percentile)"
}

// perLayer fills the per-layer metrics from the traced rounds' spans and
// accumulators and from the timed window's counter deltas.
func (r *result) perLayer(d *driver, t traits, delta counters, hops hopHist, rounds []roundTime) {
	tr := d.traced
	if tr == nil {
		tr = &tracer{}
	}
	spanQ := func(name string, k spanKind, unit string, q float64, div float64) {
		s := tr.durations(k, div)
		r.addLayer(name, unit, s.quantile(q), len(s) > 0, fmt.Sprintf("n=%d", len(s)))
	}
	// cluster: the mutator entry path.
	spanQ("cluster.acquire_cached.p50_us", spanAcquireCached, "us", 0.50, 1e3)
	spanQ("cluster.acquire_cached.p99_us", spanAcquireCached, "us", 0.99, 1e3)
	spanQ("cluster.read_word.p50_us", spanReadWord, "us", 0.50, 1e3)
	spanQ("cluster.write_word.p50_us", spanWriteWord, "us", 0.50, 1e3)
	spanQ("cluster.release.p50_us", spanRelease, "us", 0.50, 1e3)
	spanQ("cluster.alloc.p50_us", spanAlloc, "us", 0.50, 1e3)
	spanQ("cluster.write_ref.p50_us", spanWriteRef, "us", 0.50, 1e3)
	// On tcp-writes the peers' transport goroutines run during the driver's
	// ops and their allocations cannot be told apart, so it is absent there.
	r.addLayer("cluster.allocs_per_op", "allocs/op", ratio(float64(d.localOpAllocs), float64(d.localOps)),
		d.localOps > 0 && !t.tcp, fmt.Sprintf("Go heap allocations per op without a remote acquire, n=%d", d.localOps))

	// dsm: token transfers.
	spanQ("dsm.acquire_remote_read.p50_us", spanAcquireRemoteRead, "us", 0.50, 1e3)
	spanQ("dsm.acquire_remote_read.p99_us", spanAcquireRemoteRead, "us", 0.99, 1e3)
	spanQ("dsm.acquire_remote_write.p50_us", spanAcquireRemoteWrite, "us", 0.50, 1e3)
	spanQ("dsm.acquire_remote_write.p99_us", spanAcquireRemoteWrite, "us", 0.99, 1e3)
	remote := float64(delta["dsm.acquire.remote"])
	r.addLayer("dsm.remote_ratio", "ratio", ratio(remote, remote+float64(delta["dsm.acquire.local"])), true, "")
	r.addLayer("dsm.hops_per_remote_acquire", "hops", ratio(float64(hops.sum), float64(hops.count)), hops.count > 0, "")
	r.addLayer("dsm.invalidations_per_write", "inv/write", ratio(float64(delta["dsm.invalidation.app"]), float64(d.writes)), d.writes > 0, "")
	r.addLayer("dsm.msgs_per_remote_acquire", "msgs", ratio(float64(delta["msg.sent.app"]), remote), remote > 0, "app class")
	r.addLayer("dsm.piggyback_bytes_per_op", "B/op", ratio(float64(delta["bytes.piggyback"]), float64(d.ops)), true, "")

	// core: the collector.
	spanQ("core.collect_owner.p50_ms", spanCollectOwner, "ms", 0.50, 1e6)
	spanQ("core.collect_owner.p90_ms", spanCollectOwner, "ms", 0.90, 1e6)
	spanQ("core.collect_replica.p50_ms", spanCollectReplica, "ms", 0.50, 1e6)
	spanQ("core.collect_group.p50_ms", spanCollectGroup, "ms", 0.50, 1e6)
	spanQ("core.reclaim_from_space.p50_us", spanReclaim, "us", 0.50, 1e3)
	colls := float64(d.collects)
	r.addLayer("core.copied_words_per_collect", "words", ratio(float64(d.copiedWords), colls), colls > 0, "")
	r.addLayer("core.scanned_words_per_collect", "words", ratio(float64(d.scannedWords), colls), colls > 0, "")
	r.addLayer("core.gc_yield", "ratio", ratio(float64(d.collectDead), float64(d.collectTrace)), colls > 0, "dead over traced")
	r.addLayer("core.allocs_per_collect", "allocs", ratio(float64(d.collectAllocs), colls), colls > 0, "Go heap allocations")
	r.addLayer("core.gc_msgs_per_collect", "msgs", ratio(float64(d.collectGCMsgs), colls), colls > 0, "")

	// ssp: the scion cleaner and its tables.
	nRounds := float64(d.rounds)
	r.addLayer("ssp.scions_deleted_per_round", "scions",
		ratio(float64(delta["core.cleaner.interScionsDeleted"]+delta["core.cleaner.intraScionsDeleted"]), nRounds), nRounds > 0, "")
	r.addLayer("ssp.table_msgs_per_round", "msgs", ratio(float64(delta["core.tables.sent"]), nRounds), nRounds > 0, "")

	// simnet: background delivery.
	spanQ("simnet.run_drain.p50_us", spanDrain, "us", 0.50, 1e3)
	r.addLayer("simnet.msgs_per_drain", "msgs", ratio(float64(d.drained), float64(d.drains)), t.simnet, "")

	// tcp: the bare transport and the codec's share of mutator ops.
	spanQ("tcp.ctl_ping.p50_us", spanCtlPing, "us", 0.50, 1e3)
	spanQ("tcp.ctl_ping.p99_us", spanCtlPing, "us", 0.99, 1e3)
	r.addLayer("tcp.allocs_per_op", "allocs/op", ratio(float64(d.pingAllocs), float64(d.pings)),
		d.pings > 0, fmt.Sprintf("Go heap allocations per control ping, both peers, n=%d", d.pings))
	r.addLayer("tcp.bytes_per_msg", "B/msg", ratio(float64(delta.bytes()), float64(delta.msgs())), t.tcp, "logical payload bytes")

	// rvm / store: durability.
	spanQ("rvm.sync.p50_us", spanSync, "us", 0.50, 1e3)
	allColls := float64(d.allCollects)
	r.addLayer("store.syncs_per_collect", "syncs", ratio(float64(delta["store.syncs"]), allColls), t.disk, "")
	r.addLayer("rvm.log_bytes_per_collect", "B", ratio(float64(delta["rvm.log.bytes"]), allColls), t.disk, "")

	// Self time by layer: each span's duration minus its children's, summed
	// by the module its name starts with (op and round self time is the
	// driver's own work between calls).
	if d.traced != nil {
		bySelf := map[string]float64{}
		var all float64
		self := tr.selfTimes()
		for i, s := range tr.spans {
			l := layerOf(s.kind)
			bySelf[l] += float64(self[i])
			all += float64(self[i])
		}
		for _, l := range []string{"cluster", "dsm", "core", "simnet", "tcp", "rvm", "driver"} {
			r.addLayer("self."+l+"_pct", "%", 100*ratio(bySelf[l], all), bySelf[l] > 0, "share of traced self time")
		}
	}
	over, n := traceOverhead(rounds)
	r.addLayer("trace_overhead_pct", "%", over, n > 0, fmt.Sprintf("%d traced rounds against the untraced ones, throughput pooled", n))
}

// roundTime is one timed round's op count and wall time.
type roundTime struct {
	ops    int64
	wall   time.Duration
	traced bool
}

// traceOverhead is the traced rounds' throughput loss against the
// untraced rounds, each side pooled (ops over wall time), in percent. The
// traced rounds come in pairs every four rounds, so both sides hold the
// same share of a workload's periodic heavy rounds (group collections,
// checkpoints) and of its drift over the run.
func traceOverhead(rounds []roundTime) (float64, int) {
	var ops [2]int64
	var wall [2]time.Duration
	n := 0
	for _, rt := range rounds {
		i := 0
		if rt.traced {
			i = 1
			n++
		}
		ops[i] += rt.ops
		wall[i] += rt.wall
	}
	if n == 0 {
		return 0, 0
	}
	base := ratio(float64(ops[0]), wall[0].Seconds())
	return 100 * ratio(base-ratio(float64(ops[1]), wall[1].Seconds()), base), n
}

func layerOf(k spanKind) string {
	if k == spanOp || k == spanRound {
		return "driver"
	}
	name := k.String()
	return name[:strings.IndexByte(name, '.')]
}
