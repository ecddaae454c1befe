package cluster

import (
	"fmt"
	"sync"
	"sync/atomic"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

// nodeTransport is the per-node view of the cluster transport handed to the
// node's DSM engine and collector. Its one job is deadlock avoidance, under
// one rule: every synchronous Call runs under the node lock, and the
// wrapper releases that lock for the duration of the exchange. The remote
// handler chain may legitimately call back into this node (a write grant
// invalidates the requester's own copy-set entries; ownership forwarding
// chains can revisit any hop), and it must find the lock free. A goroutine
// therefore holds at most one node lock at any moment, and every blocked
// Call holds none. Asynchronous Sends only enqueue — no handler runs — so
// they keep the lock.
type nodeTransport struct {
	n     *Node
	inner transport.Network
}

func (t *nodeTransport) Send(m transport.Msg) bool { return t.inner.Send(m) }

func (t *nodeTransport) Call(m transport.Msg) (any, error) {
	if t.n.mu.TryLock() {
		// Nobody held the lock, so the caller broke the rule: entering
		// dsm or core without going through a cluster entry point.
		t.n.mu.Unlock()
		panic(fmt.Sprintf("cluster: %v issued synchronous call %q without holding its node lock", t.n.id, m.Kind))
	}
	t.n.mu.Unlock()
	defer t.n.mu.Lock()
	return t.inner.Call(m)
}

func (t *nodeTransport) Register(id addr.NodeID, h transport.Handler, c transport.CallHandler) {
	t.inner.Register(id, h, c)
}

func (t *nodeTransport) Clock() *transport.Clock { return t.inner.Clock() }
func (t *nodeTransport) Stats() *transport.Stats { return t.inner.Stats() }

// RunConcurrent drains pending background messages with one delivery
// goroutine per node, so deliveries to different nodes proceed in parallel
// while each (from, to) stream stays FIFO (every destination has exactly
// one consumer). It stops when no messages remain, or after limit
// deliveries (limit <= 0 means no limit), and returns the number delivered.
//
// Unlike Run, the global delivery order is not deterministic; use it for
// throughput, Run for reproducibility.
func (cl *Cluster) RunConcurrent(limit int) int {
	var delivered atomic.Int64
	for {
		var passed atomic.Int64
		var wg sync.WaitGroup
		for _, n := range cl.nodes {
			wg.Add(1)
			go func(dst addr.NodeID) {
				defer wg.Done()
				for {
					if limit > 0 && delivered.Add(1) > int64(limit) {
						delivered.Add(-1)
						return
					}
					if !cl.net.StepFor(dst) {
						if limit > 0 {
							delivered.Add(-1)
						}
						return
					}
					if limit <= 0 {
						delivered.Add(1)
					}
					passed.Add(1)
				}
			}(n.id)
		}
		wg.Wait()
		// Handlers may have enqueued fresh messages after a node's drainer
		// saw its queues empty and exited; run another pass until one
		// delivers nothing (the network is then quiescent).
		if passed.Load() == 0 || (limit > 0 && delivered.Load() >= int64(limit)) {
			break
		}
	}
	return int(delivered.Load())
}
