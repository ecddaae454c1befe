package main

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanKind names one boundary the driver times in a traced round. The
// names carry the layer (module) whose public function the span wraps.
type spanKind uint8

const (
	spanOp spanKind = iota
	spanRound
	spanAcquireCached
	spanAcquireRemoteRead
	spanAcquireRemoteWrite
	spanReadWord
	spanWriteWord
	spanRelease
	spanAlloc
	spanWriteRef
	spanCollectOwner
	spanCollectReplica
	spanCollectGroup
	spanReclaim
	spanSync
	spanCheckpoint
	spanDrain
	spanFlush
	spanCtlPing
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	spanOp:                 "op",
	spanRound:              "round",
	spanAcquireCached:      "cluster.acquire_cached",
	spanAcquireRemoteRead:  "dsm.acquire_remote_read",
	spanAcquireRemoteWrite: "dsm.acquire_remote_write",
	spanReadWord:           "cluster.read_word",
	spanWriteWord:          "cluster.write_word",
	spanRelease:            "cluster.release",
	spanAlloc:              "cluster.alloc",
	spanWriteRef:           "cluster.write_ref",
	spanCollectOwner:       "core.collect_owner",
	spanCollectReplica:     "core.collect_replica",
	spanCollectGroup:       "core.collect_group",
	spanReclaim:            "core.reclaim_from_space",
	spanSync:               "rvm.sync",
	spanCheckpoint:         "rvm.checkpoint",
	spanDrain:              "simnet.run_drain",
	spanFlush:              "core.flush_locations",
	spanCtlPing:            "tcp.ctl_ping",
}

func (k spanKind) String() string { return spanNames[k] }

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent is the index of the enclosing span, -1 at top level.
type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// tracer keeps the traced rounds' spans in memory; they are written out
// once, when the run ends. A nil *tracer records nothing, which is how
// untraced rounds run the same code.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(k spanKind, parent int32) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{kind: k, parent: parent, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].end = int64(time.Since(t.epoch))
}

// relabel changes a span's kind once the call's outcome is known (a
// collection copied owned objects or only scanned).
func (t *tracer) relabel(id int32, k spanKind) {
	if t != nil {
		t.spans[id].kind = k
	}
}

func (s span) dur() int64 { return s.end - s.start }

// selfTimes returns each span's duration minus the part its children cover.
func (t *tracer) selfTimes() []int64 {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// durations returns the durations of every span of kind k in nanoseconds
// divided by unit (1e3 for µs, 1e6 for ms).
func (t *tracer) durations(k spanKind, unit float64) samples {
	var out samples
	for _, s := range t.spans {
		if s.kind == k {
			out = append(out, float64(s.dur())/unit)
		}
	}
	return out
}

// layerRow is one line of the per-layer self-time table.
type layerRow struct {
	name         string
	count        int
	totalMS      float64
	selfMS       float64
	selfShare    float64
	p50US, p99US float64
}

func (t *tracer) table() []layerRow {
	self := t.selfTimes()
	var rows [numSpanKinds]layerRow
	var durs [numSpanKinds]samples
	var allSelf float64
	for i, s := range t.spans {
		r := &rows[s.kind]
		r.count++
		r.totalMS += float64(s.dur()) / 1e6
		r.selfMS += float64(self[i]) / 1e6
		allSelf += float64(self[i]) / 1e6
		durs[s.kind] = append(durs[s.kind], float64(s.dur())/1e3)
	}
	var out []layerRow
	for k := range rows {
		r := rows[k]
		if r.count == 0 {
			continue
		}
		r.name = spanKind(k).String()
		if allSelf > 0 {
			r.selfShare = r.selfMS / allSelf
		}
		r.p50US, r.p99US = durs[k].quantile(0.5), durs[k].quantile(0.99)
		out = append(out, r)
	}
	slices.SortFunc(out, func(a, b layerRow) int { return cmp.Compare(b.selfMS, a.selfMS) })
	return out
}

func printTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-26s %8s %10s %10s %6s %10s %10s\n",
		"span", "count", "total_ms", "self_ms", "self%", "p50_us", "p99_us")
	for _, r := range rows {
		fmt.Fprintf(w, "%-26s %8d %10.1f %10.1f %5.1f%% %10.1f %10.1f\n",
			r.name, r.count, r.totalMS, r.selfMS, 100*r.selfShare, r.p50US, r.p99US)
	}
}

// write stores the spans as tab-separated lines: index, parent, name,
// start and end in nanoseconds since the tracer was made, just before the
// timed window.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.kind, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
