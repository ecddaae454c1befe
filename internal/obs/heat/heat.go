// Package heat is the cluster's access-locality accounting layer: per-OID
// and per-bunch read/write/acquire counters sliced by requester node, with
// decaying epoch windows so steady-state skew and bursty skew are
// distinguishable, and ownership marks stamped with the Lamport tick so the
// per-process tables of a multi-process cluster merge into one consistent
// heat table. It rides the obs.Observer the same way the observer rides on
// transport.Stats: any layer holding a transport reaches the table through
// heat.Of(stats.Observer()) with no constructor churn, and while disabled
// every note is a single atomic load — the event rings' contract.
//
// The table measures access locality: the analyzer in report.go turns a
// snapshot into remote-access ratios per object, bunch and node, and a
// dominant-writer vs current-owner mismatch list ranked by wasted hops —
// concrete migration advice for an operator to read.
package heat

import (
	"sync"
	"sync/atomic"

	"bmx/internal/addr"
	"bmx/internal/obs"
)

// auxKey names the table's slot on the Observer's attachment registry.
const auxKey = "heat.table"

// Of returns the heat table riding on o, creating it on first use. Every
// caller sharing an Observer (every node of one process) shares one table.
// A nil Observer yields a detached, permanently disabled table whose
// methods are all safe no-ops.
func Of(o *obs.Observer) *Table {
	if o == nil {
		return &Table{}
	}
	return o.Aux(auxKey, func() any { return &Table{o: o} }).(*Table)
}

// Table is the per-process heat table: one cell per (object, accessing
// node) plus per-object ownership marks. Notes from concurrent mutators and
// GC workers serialize on one mutex — contention is acceptable because the
// disabled path never takes it, and enabled runs are observability runs.
type Table struct {
	enabled atomic.Bool
	o       *obs.Observer

	mu     sync.Mutex
	cells  map[cellKey]*cell
	owners map[addr.OID]ownerMark
	epoch  uint64
}

type cellKey struct {
	oid  addr.OID
	node addr.NodeID
}

// cell accumulates one node's accesses to one object. recent is the
// epoch-decayed activity figure: every note adds one, every Advance halves
// it, so a burst fades over a few epochs while the cumulative counters keep
// the whole history.
type cell struct {
	bunch    addr.BunchID
	reads    uint64
	writes   uint64
	acquires uint64
	remote   uint64 // acquires that travelled the owner chain
	hops     uint64 // ownerPtr forwards those remote acquires cost
	recent   uint64
}

// ownerMark records who owned the object as of a Lamport tick. Marks are
// written only at the node that BECOMES the owner (allocation, write-grant
// completion, reestablish), so in a multi-process cluster each process
// marks only transitions it performed and the merge resolves the current
// owner by the highest tick.
type ownerMark struct {
	node addr.NodeID
	tick uint64
}

// Enable turns accounting on. Instrumentation is always compiled in; this
// flips the one atomic every note checks.
func (t *Table) Enable() {
	if t != nil {
		t.enabled.Store(true)
	}
}

// Disable turns accounting off (accumulated cells are kept).
func (t *Table) Disable() {
	if t != nil {
		t.enabled.Store(false)
	}
}

// Enabled reports whether accesses are being recorded.
func (t *Table) Enabled() bool { return t != nil && t.enabled.Load() }

func (t *Table) cellLocked(by addr.NodeID, o addr.OID, b addr.BunchID) *cell {
	if t.cells == nil {
		t.cells = make(map[cellKey]*cell)
	}
	c, ok := t.cells[cellKey{oid: o, node: by}]
	if !ok {
		c = &cell{bunch: b}
		t.cells[cellKey{oid: o, node: by}] = c
	}
	if c.bunch == addr.NoBunch && b != addr.NoBunch {
		c.bunch = b
	}
	return c
}

// NoteRead records one field read of o by node by.
func (t *Table) NoteRead(by addr.NodeID, o addr.OID, b addr.BunchID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	c := t.cellLocked(by, o, b)
	c.reads++
	c.recent++
	t.mu.Unlock()
}

// NoteWrite records one field write of o by node by.
func (t *Table) NoteWrite(by addr.NodeID, o addr.OID, b addr.BunchID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	c := t.cellLocked(by, o, b)
	c.writes++
	c.recent++
	t.mu.Unlock()
}

// NoteAcquire records one token acquire of o by node by. remote says the
// token was not locally cached (the acquire travelled the owner chain) and
// hops is how many ownerPtr forwards the chain cost — the wasted-hop
// currency the migration advice is ranked in.
func (t *Table) NoteAcquire(by addr.NodeID, o addr.OID, b addr.BunchID, remote bool, hops int) {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	c := t.cellLocked(by, o, b)
	c.acquires++
	c.recent++
	if remote {
		c.remote++
		if hops > 0 {
			c.hops += uint64(hops)
		}
	}
	t.mu.Unlock()
}

// NoteOwner records that owner now owns o, stamped with the observer's
// current Lamport tick. Called only at the node that acquired ownership.
func (t *Table) NoteOwner(o addr.OID, owner addr.NodeID) {
	if t == nil || !t.enabled.Load() {
		return
	}
	tick := t.o.Now()
	t.mu.Lock()
	if t.owners == nil {
		t.owners = make(map[addr.OID]ownerMark)
	}
	// Lamport ticks can collide when ownership bounces within one tick;
	// later marks win ties so the table agrees with protocol order.
	if m, ok := t.owners[o]; !ok || tick >= m.tick {
		t.owners[o] = ownerMark{node: owner, tick: tick}
	}
	t.mu.Unlock()
}

// Advance closes one epoch: every cell's decayed-activity figure is halved.
// The cluster calls this once per Run drain (the driver's round boundary),
// so "recent" means "roughly the last few rounds" deterministically.
func (t *Table) Advance() {
	if t == nil || !t.enabled.Load() {
		return
	}
	t.mu.Lock()
	t.epoch++
	for _, c := range t.cells {
		c.recent /= 2
	}
	t.mu.Unlock()
}

// Epoch returns how many decay epochs have closed.
func (t *Table) Epoch() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

// Len returns the number of (object, node) cells.
func (t *Table) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.cells)
}

// Reset drops every cell and ownership mark (the enable flag survives).
func (t *Table) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cells, t.owners, t.epoch = nil, nil, 0
	t.mu.Unlock()
}
