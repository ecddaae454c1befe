package main

import (
	"math"
	"runtime/metrics"
	"slices"

	"bmx"
)

// samples is one distribution of timings, in the unit it is reported in.
type samples []float64

// quantile is the nearest-rank quantile (q in [0,1]); 0 when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	return c[min(max(i, 0), len(c)-1)]
}

// tailOK reports whether the q-quantile has at least ten samples beyond it,
// the smallest sample count at which that percentile is worth printing.
func (s samples) tailOK(q float64) bool {
	return float64(len(s))*(1-q) >= 10
}

// counters snapshots the message and recovery counters of one or more
// clusters (the three peers of the TCP workload each keep their own).
type counters map[string]int64

func snapshot(stats ...*bmx.Stats) counters {
	c := counters{}
	for _, st := range stats {
		for k, v := range st.Snapshot() {
			c[k] += v
		}
	}
	return c
}

// sub returns the per-name deltas since an earlier snapshot.
func (c counters) sub(prev counters) counters {
	d := counters{}
	for k, v := range c {
		if v != prev[k] {
			d[k] = v - prev[k]
		}
	}
	return d
}

// msgs is every message sent, all traffic classes (replies included).
func (c counters) msgs() int64 {
	return c["msg.sent.app"] + c["msg.sent.gc"] + c["msg.sent.place"]
}

// kind is the messages sent of one kind (a reply's kind ends in .reply).
func (c counters) kind(k string) int64 { return c["msg.sent.kind."+k] }

// bytes is every logical payload byte sent, all traffic classes.
func (c counters) bytes() int64 {
	return c["bytes.sent.app"] + c["bytes.sent.gc"] + c["bytes.sent.place"]
}

// collectorTokens is the paper's §5 probe: tokens the collector acquired
// plus invalidations it caused. Both must stay zero.
func (c counters) collectorTokens() int64 {
	return c["dsm.acquire.r.gc"] + c["dsm.acquire.w.gc"] + c["dsm.invalidation.gc"]
}

// recoveries counts the recovery paths a fault-free run must never take.
func (c counters) recoveries() int64 {
	return c["dsm.route.exhausted"] + c["dsm.reestablished"] + c["dsm.route.cycleAvoided"]
}

// goRuntime reads the runtime counters the benchmark samples: heap
// allocations so far, heap bytes in use (live plus not yet swept objects,
// plus free slots in in-use spans), and heap bytes the latest Go collection
// marked live.
type goRuntime struct{ s [4]metrics.Sample }

func newGoRuntime() *goRuntime {
	g := &goRuntime{}
	g.s[0].Name = "/gc/heap/allocs:objects"
	g.s[1].Name = "/memory/classes/heap/objects:bytes"
	g.s[2].Name = "/memory/classes/heap/unused:bytes"
	g.s[3].Name = "/gc/heap/live:bytes"
	return g
}

func (g *goRuntime) allocs() uint64 {
	metrics.Read(g.s[:1])
	return g.s[0].Value.Uint64()
}

func (g *goRuntime) heapInUse() uint64 {
	metrics.Read(g.s[1:3])
	return g.s[1].Value.Uint64() + g.s[2].Value.Uint64()
}

func (g *goRuntime) heapLive() uint64 {
	metrics.Read(g.s[3:])
	return g.s[3].Value.Uint64()
}
