package obs

import (
	"fmt"

	"bmx/internal/addr"
)

// Causal span tracing. A span is one timed operation — a mutator entry
// point, a collector phase, the service of one wire message — and every
// span names its parent, so the begin/end events in the flight-recorder
// rings reconstruct into trees that cross node and process boundaries.
// The SpanContext travels on transport.Msg: the sending transport stamps
// the sender's current span onto every outgoing message, and the serving
// side starts a child span under it, which is all the propagation the
// whole protocol stack needs.
//
// Everything here follows the recorder's contract: with recording
// disabled, StartSpan is one atomic load returning the zero SpanScope and
// no allocation happens anywhere on the path.

// SpanContext identifies one node of a causal span tree: the trace it
// belongs to, its own ID, and its parent's ID (0 for a root). The zero
// value means "no span" and is what every message carries while tracing
// is off.
type SpanContext struct {
	Trace  uint64
	Span   uint64
	Parent uint64
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return sc.Span != 0 }

// SpanOp classifies what a span measured. The taxonomy mirrors the event
// kinds: op.* for mutator entry points, serve.* for wire-message service,
// gc.* for collector phases, ctl for the multi-process driver channel.
type SpanOp uint8

// Span operations.
const (
	OpNone SpanOp = iota

	// Mutator entry points (internal/cluster).
	OpAlloc     // op.alloc
	OpAcquireR  // op.acquire.r
	OpAcquireW  // op.acquire.w
	OpWriteRef  // op.write.ref
	OpWriteWord // op.write.word
	OpMapBunch  // op.mapBunch

	// Requester-side envelope of the owner-chain Call (internal/dsm).
	OpAcquireRemote // dsm.acquire.remote

	// Wire-message service (the receiving side of a Send or Call).
	OpServeAcquire
	OpServeInvalidate
	OpServeLocUpdate
	OpServeScion
	OpServeTable
	OpServeLocFlush
	OpServeCopyOut
	OpServeAddrChange
	OpServeDeadNotice
	OpServeMapBunch
	OpServeDir // any dir.* directory call at the seed
	OpServeCtl // any ctl.* driver call at a follower
	OpServeOther

	// Collector phases (internal/cluster collection drivers).
	OpGCBunch   // gc.phase.bunch
	OpGCGroup   // gc.phase.group
	OpGCReclaim // gc.phase.reclaim
	OpGCFlush   // gc.phase.flush

	// Seed-side control call in multi-process mode (cluster.Peer.Control).
	OpCtl // ctl.drive

	numSpanOps
)

var opNames = [...]string{
	OpNone:            "-",
	OpAlloc:           "op.alloc",
	OpAcquireR:        "op.acquire.r",
	OpAcquireW:        "op.acquire.w",
	OpWriteRef:        "op.write.ref",
	OpWriteWord:       "op.write.word",
	OpMapBunch:        "op.mapBunch",
	OpAcquireRemote:   "dsm.acquire.remote",
	OpServeAcquire:    "serve.acquire",
	OpServeInvalidate: "serve.invalidate",
	OpServeLocUpdate:  "serve.locUpdate",
	OpServeScion:      "serve.scion",
	OpServeTable:      "serve.table",
	OpServeLocFlush:   "serve.locFlush",
	OpServeCopyOut:    "serve.copyOut",
	OpServeAddrChange: "serve.addrChange",
	OpServeDeadNotice: "serve.deadNotice",
	OpServeMapBunch:   "serve.mapBunch",
	OpServeDir:        "serve.dir",
	OpServeCtl:        "serve.ctl",
	OpServeOther:      "serve.other",
	OpGCBunch:         "gc.phase.bunch",
	OpGCGroup:         "gc.phase.group",
	OpGCReclaim:       "gc.phase.reclaim",
	OpGCFlush:         "gc.phase.flush",
	OpCtl:             "ctl.drive",
}

// String names the operation with its layer prefix.
func (op SpanOp) String() string {
	if int(op) < len(opNames) && opNames[op] != "" {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// IsMutator reports whether the op is a mutator entry point — the spans
// whose subtrees constitute the application's critical path for the
// paper's §4.4 claim.
func (op SpanOp) IsMutator() bool {
	switch op {
	case OpAlloc, OpAcquireR, OpAcquireW, OpWriteRef, OpWriteWord, OpMapBunch:
		return true
	}
	return false
}

// ServeOpOf maps a wire-message kind string onto the serve.* span op for
// the span that times its service.
func ServeOpOf(kind string) SpanOp {
	switch kind {
	case "dsm.acquire":
		return OpServeAcquire
	case "dsm.invalidate":
		return OpServeInvalidate
	case "dsm.locUpdate":
		return OpServeLocUpdate
	case "gc.scion":
		return OpServeScion
	case "gc.table":
		return OpServeTable
	case "gc.locFlush":
		return OpServeLocFlush
	case "gc.copyOut":
		return OpServeCopyOut
	case "gc.addrChange":
		return OpServeAddrChange
	case "gc.deadNotice":
		return OpServeDeadNotice
	case "cl.mapBunch":
		return OpServeMapBunch
	}
	if len(kind) > 4 && kind[:4] == "dir." {
		return OpServeDir
	}
	if len(kind) > 4 && kind[:4] == "ctl." {
		return OpServeCtl
	}
	return OpServeOther
}

// SpanScope is a live span held by the code that started it; End closes
// the span. It is returned by value and the zero SpanScope (what
// StartSpan returns while recording is disabled) is an inert no-op, so
// the instrumented fast paths never allocate when tracing is off.
type SpanScope struct {
	r     *Recorder
	sc    SpanContext
	op    SpanOp
	oid   addr.OID
	start uint64
}

// Context returns the span's identity (zero while tracing is off).
func (s SpanScope) Context() SpanContext { return s.sc }

// End closes the span: pops it from the recorder's current-span stack,
// emits the span.end event carrying the elapsed simulated ticks, and
// feeds the per-op latency histogram.
func (s SpanScope) End() {
	if s.r == nil || !s.sc.Valid() {
		return
	}
	s.r.popSpan(s.sc.Span)
	elapsed := int64(s.r.o.now() - s.start)
	s.r.Emit(Event{
		Kind: KSpanEnd, Class: ClassNone, OID: s.oid, Op: s.op,
		Trace: s.sc.Trace, Span: s.sc.Span, SParent: s.sc.Parent, B: elapsed,
	})
	s.r.o.spanTicksHist(s.op).Observe(elapsed)
}

// StartSpan begins a span at this node. Its parent is the node's current
// span if one is open (nesting mutator ops under the driver call being
// served), otherwise the span roots a fresh trace. While recording is
// disabled this is one atomic load returning the zero scope.
func (r *Recorder) StartSpan(op SpanOp, oid addr.OID) SpanScope {
	if r == nil || !r.o.enabled.Load() {
		return SpanScope{}
	}
	return r.startSpan(op, oid, SpanContext{})
}

// StartServerSpan begins a span whose parent is the span carried on an
// incoming wire message — the receiving half of cross-node propagation.
// A zero remote context roots a fresh trace (the sender wasn't tracing a
// span, e.g. background traffic).
func (r *Recorder) StartServerSpan(op SpanOp, oid addr.OID, remote SpanContext) SpanScope {
	if r == nil || !r.o.enabled.Load() {
		return SpanScope{}
	}
	return r.startSpan(op, oid, remote)
}

func (r *Recorder) startSpan(op SpanOp, oid addr.OID, remote SpanContext) SpanScope {
	id := r.o.nextSpanID(r.node)
	sc := SpanContext{Span: id}
	var gid int64
	if r.o.strict.Load() {
		gid = goroutineID()
	}
	r.mu.Lock()
	switch {
	case remote.Valid():
		sc.Trace, sc.Parent = remote.Trace, remote.Span
	case len(r.spans) > 0:
		if gid != 0 {
			r.strictCheckLocked(gid, op) // unlocks and panics on violation
		}
		top := r.spans[len(r.spans)-1]
		sc.Trace, sc.Parent = top.Trace, top.Span
	default:
		sc.Trace = id // a new root: the trace is named after it
	}
	r.spans = append(r.spans, sc)
	r.spanGids = append(r.spanGids, gid)
	r.mu.Unlock()
	start := r.o.now()
	r.Emit(Event{
		Kind: KSpanBegin, Class: ClassNone, OID: oid, Op: op,
		Trace: sc.Trace, Span: sc.Span, SParent: sc.Parent,
	})
	return SpanScope{r: r, sc: sc, op: op, oid: oid, start: start}
}

// CurrentSpan returns the node's innermost open span (zero if none, or
// while recording is disabled). The sending transports stamp this onto
// every outgoing message that does not already carry a span.
func (r *Recorder) CurrentSpan() SpanContext {
	if r == nil || !r.o.enabled.Load() {
		return SpanContext{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.spans); n > 0 {
		return r.spans[n-1]
	}
	return SpanContext{}
}

// popSpan removes the identified span from the stack. Removal is by ID,
// not position, so overlapping scopes on one node (concurrent mutators
// sharing a recorder) close cleanly even when they end out of order.
func (r *Recorder) popSpan(id uint64) {
	r.mu.Lock()
	for i := len(r.spans) - 1; i >= 0; i-- {
		if r.spans[i].Span == id {
			r.spans = append(r.spans[:i], r.spans[i+1:]...)
			if i < len(r.spanGids) {
				r.spanGids = append(r.spanGids[:i], r.spanGids[i+1:]...)
			}
			break
		}
	}
	r.mu.Unlock()
}

// nextSpanID mints a cluster-unique, deterministic span ID: the node's
// rank in the high bits (every process owns a distinct NodeID) over a
// per-observer sequence — no randomness, no wall clock, so same-seed
// runs mint identical IDs.
func (o *Observer) nextSpanID(node addr.NodeID) uint64 {
	return (uint64(node)+1)<<40 | o.spanSeq.Add(1)
}

// spanTicksHist returns the per-op span latency histogram, cached in a
// fixed array so closing a span does not take the registry lock.
func (o *Observer) spanTicksHist(op SpanOp) *Histogram {
	if int(op) >= len(o.spanHists) {
		return o.Hist("span.ticks." + op.String())
	}
	if h := o.spanHists[op].Load(); h != nil {
		return h
	}
	h := o.Hist("span.ticks." + op.String())
	o.spanHists[op].Store(h)
	return h
}
