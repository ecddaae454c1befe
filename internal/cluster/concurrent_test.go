package cluster

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bmx/internal/transport"
)

// TestCallWithoutNodeLockPanics pins the node transport's rule: every
// synchronous Call runs under the node lock, and the wrapper releases it
// for the exchange. A caller that reaches Call without the lock has entered
// dsm or core around the cluster entry points; the wrapper must refuse
// loudly instead of running the exchange, and must leave the lock free.
func TestCallWithoutNodeLockPanics(t *testing.T) {
	cl := New(Config{Nodes: 2})
	n0, n1 := cl.Node(0), cl.Node(1)
	b := n1.NewBunch()
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("synchronous Call without the node lock did not panic")
			}
			if !strings.Contains(fmt.Sprint(r), "without holding its node lock") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		n0.tr.Call(transport.Msg{
			From: n0.ID(), To: n1.ID(), Kind: KindMapBunch, Class: transport.ClassApp,
			Payload: mapBunchReq{Bunch: b}, Bytes: 16,
		})
	}()
	// The guard must not leave the lock taken: an entry point still gets in.
	done := make(chan error, 1)
	go func() { done <- n0.MapBunch(b) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("MapBunch after the guard fired: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("node lock still held after the guard fired")
	}
}

// TestConcurrentDisjointMutators is the parallelism payoff test: one
// goroutine per node, each working entirely in its own bunch (allocation,
// rooted writes, reads, collections). Disjoint bunches share only the
// directory, allocator and network, so every operation should proceed
// without cross-node protocol traffic — and without data races (run under
// -race in CI). Values written must read back exactly: nobody else holds
// these tokens.
func TestConcurrentDisjointMutators(t *testing.T) {
	cl := New(Config{Nodes: 4})
	var wg sync.WaitGroup
	for i := 0; i < cl.Nodes(); i++ {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			b := n.NewBunch()
			var objs []Ref
			for j := 0; j < 8; j++ {
				r := n.MustAlloc(b, 4)
				n.AddRoot(r)
				objs = append(objs, r)
			}
			for round := 0; round < 40; round++ {
				for k, r := range objs {
					if err := n.AcquireWrite(r); err != nil {
						t.Errorf("node %v acquire %v: %v", n.ID(), r, err)
						return
					}
					want := uint64(round*len(objs) + k)
					if err := n.WriteWord(r, 1, want); err != nil {
						t.Errorf("node %v write %v: %v", n.ID(), r, err)
						return
					}
					got, err := n.ReadWord(r, 1)
					if err != nil {
						t.Errorf("node %v read %v: %v", n.ID(), r, err)
						return
					}
					if got != want {
						t.Errorf("node %v: %v field 1 = %d, want %d", n.ID(), r, got, want)
						return
					}
					n.Release(r)
				}
				if round%10 == 9 {
					n.CollectBunch(b)
				}
			}
		}(cl.Node(i))
	}
	wg.Wait()
	if n := cl.RunConcurrent(0); n < 0 {
		t.Fatalf("RunConcurrent returned %d", n)
	}
	cl.Run(0)
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after disjoint concurrent run:\n%v", bad)
	}
}

// TestConcurrentSharedBunchStress drives one goroutine per node against the
// SAME bunch: every goroutine acquires read and write tokens on a small set
// of shared objects while a drainer goroutine delivers background messages
// concurrently with RunConcurrent, and nodes collect their replicas between
// rounds. Token revocation can race with a mutator's critical section
// (entry consistency allows a remote acquire to steal the token between a
// local Acquire and the subsequent access), so individual accesses may fail
// with "without the write token" — those are counted and tolerated, exactly
// as a real mutator would re-enter its critical section. What must hold
// unconditionally, and is asserted after quiescing, is the property-test
// oracle: token conservation (at most one owner, at most one writer, a
// writer excludes readers), SSP pairing, route symmetry and heap sanity —
// all via CheckInvariants.
func TestConcurrentSharedBunchStress(t *testing.T) {
	cl := New(Config{Nodes: 4})
	n0 := cl.Node(0)
	b := n0.NewBunch()
	var objs []Ref
	for j := 0; j < 6; j++ {
		r := n0.MustAlloc(b, 4)
		n0.AddRoot(r)
		objs = append(objs, r)
	}
	for i := 1; i < cl.Nodes(); i++ {
		if err := cl.Node(i).MapBunch(b); err != nil {
			t.Fatalf("mapping %v at node %d: %v", b, i, err)
		}
	}

	var tokenRaces atomic.Int64
	for round := 0; round < 4; round++ {
		stop := make(chan struct{})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if cl.RunConcurrent(0) == 0 {
					runtime.Gosched()
				}
			}
		}()

		var wg sync.WaitGroup
		for i := 0; i < cl.Nodes(); i++ {
			wg.Add(1)
			go func(idx int, n *Node) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(round*100 + idx)))
				for it := 0; it < 120; it++ {
					r := objs[rng.Intn(len(objs))]
					if rng.Intn(4) == 0 {
						if err := n.AcquireRead(r); err != nil {
							t.Errorf("node %v acquire-read %v: %v", n.ID(), r, err)
							return
						}
						if _, err := n.ReadWord(r, 1); err != nil {
							tokenRaces.Add(1) // token stolen before the read
						}
					} else {
						if err := n.AcquireWrite(r); err != nil {
							t.Errorf("node %v acquire-write %v: %v", n.ID(), r, err)
							return
						}
						if err := n.WriteWord(r, 1, uint64(it)); err != nil {
							tokenRaces.Add(1) // token stolen before the write
						}
					}
					n.Release(r)
				}
			}(i, cl.Node(i))
		}
		wg.Wait()
		close(stop)
		<-drained

		// Collections on a shared bunch run against a quiescent network
		// (the supported discipline; see DESIGN.md §5): drain, collect
		// everywhere, drain the resulting table traffic.
		cl.Run(0)
		for i := 0; i < cl.Nodes(); i++ {
			cl.Node(i).CollectBunch(b)
		}
		cl.Run(0)
	}

	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after shared-bunch stress (token races tolerated: %d):\n%v",
			tokenRaces.Load(), bad)
	}
	t.Logf("shared-bunch stress: %d tolerated token races", tokenRaces.Load())
}

// TestRunConcurrentDrainsLikeRun checks RunConcurrent against Run on the
// same deterministic workload: both must deliver every pending message and
// leave the network quiescent, and the exact-limit variant must deliver
// exactly the requested number.
func TestRunConcurrentDrainsLikeRun(t *testing.T) {
	build := func() *Cluster {
		cl := New(Config{Nodes: 3})
		n0 := cl.Node(0)
		b := n0.NewBunch()
		var objs []Ref
		for j := 0; j < 4; j++ {
			r := n0.MustAlloc(b, 4)
			n0.AddRoot(r)
			objs = append(objs, r)
		}
		for i := 1; i < cl.Nodes(); i++ {
			if err := cl.Node(i).MapBunch(b); err != nil {
				t.Fatalf("map: %v", err)
			}
		}
		for i := 0; i < cl.Nodes(); i++ {
			cl.Node(i).CollectBunch(b)
			cl.Node(i).FlushLocations()
		}
		return cl
	}

	ref := build()
	want := ref.Run(0)
	if ref.Pending() != 0 {
		t.Fatalf("Run left %d pending", ref.Pending())
	}
	if want == 0 {
		t.Fatalf("workload produced no background messages; test is vacuous")
	}

	conc := build()
	if got := conc.RunConcurrent(0); got != want {
		// Handlers may emit follow-up traffic dependent on delivery order,
		// so only the quiescent end state must match exactly.
		t.Logf("RunConcurrent delivered %d, Run delivered %d", got, want)
	}
	if conc.Pending() != 0 {
		t.Fatalf("RunConcurrent left %d pending", conc.Pending())
	}
	if bad := conc.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after RunConcurrent:\n%v", bad)
	}

	lim := build()
	if got := lim.RunConcurrent(2); got != 2 {
		t.Fatalf("RunConcurrent(2) delivered %d messages, want exactly 2", got)
	}
}
