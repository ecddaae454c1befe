package cluster

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"bmx/internal/addr"
)

// TestParallelCollectHammerEpochMonotonic is the tentpole stress test for
// the GC worker pool: node 0 collects all of its bunches with four workers
// — releasing the node lock around the trace/copy/fixup phases — while
// local mutator goroutines keep acquiring, writing and reading the very
// objects being collected, and a drainer delivers background traffic
// concurrently. Node 1 maps every bunch and passively applies the location
// manifests the collections produce. Run under -race in CI.
//
// The correctness oracle, beyond the race detector and CheckInvariants, is
// location-epoch monotonicity: a monitor goroutine samples
// Collector.LocationEpoch for every object on both nodes throughout the
// run, and an epoch must never go backwards — a regression would mean a
// stale manifest overtook a fresher one, exactly the §4.4 hazard the
// epoch protocol exists to prevent.
func TestParallelCollectHammerEpochMonotonic(t *testing.T) {
	cl := New(Config{Nodes: 2})
	n0, n1 := cl.Node(0), cl.Node(1)

	const nBunches = 6
	const objsPerBunch = 6
	rounds := 6
	if testing.Short() {
		rounds = 3
	}

	var bunches []addr.BunchID
	var objs []Ref
	for i := 0; i < nBunches; i++ {
		b := n0.NewBunch()
		bunches = append(bunches, b)
		for j := 0; j < objsPerBunch; j++ {
			r := n0.MustAlloc(b, 4)
			n0.AddRoot(r)
			objs = append(objs, r)
		}
	}
	for _, b := range bunches {
		if err := n1.MapBunch(b); err != nil {
			t.Fatalf("mapping %v at node 1: %v", b, err)
		}
	}
	cl.Run(0)

	var tokenRaces atomic.Int64
	for round := 0; round < rounds; round++ {
		stop := make(chan struct{})
		var helpers sync.WaitGroup

		// Background delivery, concurrent with everything else.
		helpers.Add(1)
		go func() {
			defer helpers.Done()
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

		// Epoch monitor: relocation epochs observed at either node must
		// never decrease.
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			last0 := make(map[addr.OID]uint64)
			last1 := make(map[addr.OID]uint64)
			col0, col1 := n0.Collector(), n1.Collector()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, r := range objs {
					if ep := col0.LocationEpoch(r.OID); ep < last0[r.OID] {
						t.Errorf("node 0: epoch of %v went backwards: %d -> %d", r.OID, last0[r.OID], ep)
						return
					} else {
						last0[r.OID] = ep
					}
					if ep := col1.LocationEpoch(r.OID); ep < last1[r.OID] {
						t.Errorf("node 1: epoch of %v went backwards: %d -> %d", r.OID, last1[r.OID], ep)
						return
					} else {
						last1[r.OID] = ep
					}
				}
				runtime.Gosched()
			}
		}()

		// Local mutators on node 0: they contend with the collector for
		// the node lock and the object stripes, and must keep making
		// progress through the unlocked GC phases.
		var muts sync.WaitGroup
		for g := 0; g < 2; g++ {
			muts.Add(1)
			go func(g int) {
				defer muts.Done()
				rng := rand.New(rand.NewSource(int64(round*10 + g)))
				for it := 0; it < 150; it++ {
					r := objs[rng.Intn(len(objs))]
					if err := n0.AcquireWrite(r); err != nil {
						t.Errorf("mutator %d acquire %v: %v", g, r, err)
						return
					}
					if err := n0.WriteWord(r, 1, uint64(it)); err != nil {
						tokenRaces.Add(1) // token stolen before the write
					} else if _, err := n0.ReadWord(r, 1); err != nil {
						tokenRaces.Add(1)
					}
					n0.Release(r)
				}
			}(g)
		}

		// The collection under test: all bunches, four workers, mutators
		// live the whole time.
		st := n0.CollectBunches(bunches, 4)
		if st.Bunches != nBunches {
			t.Errorf("round %d: collected %d bunches, want %d", round, st.Bunches, nBunches)
		}
		n0.FlushLocations()

		muts.Wait()
		close(stop)
		helpers.Wait()
		cl.Run(0)
	}

	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after parallel-GC hammer (token races tolerated: %d):\n%v",
			tokenRaces.Load(), bad)
	}
	t.Logf("parallel-GC hammer: %d tolerated token races", tokenRaces.Load())
}

// TestParallelCollectNoDSMInterference re-states the paper's central claim
// for the worker pool: collection — now running on four goroutines per
// node — still acquires no DSM tokens and invalidates no replicas. The
// same probes gate bmxd runs; here they gate the library path directly.
func TestParallelCollectNoDSMInterference(t *testing.T) {
	cl := New(Config{Nodes: 3})
	n0 := cl.Node(0)

	var bunches []addr.BunchID
	var objs []Ref
	for i := 0; i < 4; i++ {
		b := n0.NewBunch()
		bunches = append(bunches, b)
		for j := 0; j < 8; j++ {
			r := n0.MustAlloc(b, 4)
			n0.AddRoot(r)
			objs = append(objs, r)
		}
	}
	// Link across bunches so tracing crosses SSPs.
	for i := range objs[:len(objs)-1] {
		if err := n0.AcquireWrite(objs[i]); err != nil {
			t.Fatalf("acquire: %v", err)
		}
		if err := n0.WriteRef(objs[i], 0, objs[i+1]); err != nil {
			t.Fatalf("link: %v", err)
		}
		n0.Release(objs[i])
	}
	for i := 1; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		for _, b := range bunches {
			if err := n.MapBunch(b); err != nil {
				t.Fatalf("map at node %d: %v", i, err)
			}
		}
		// Remote mutators touch a few objects so replicas and tokens exist.
		for j := 0; j < 4; j++ {
			r := objs[(i*7+j*5)%len(objs)]
			if err := n.AcquireWrite(r); err != nil {
				t.Fatalf("node %d acquire: %v", i, err)
			}
			if err := n.WriteWord(r, 2, uint64(i*100+j)); err != nil {
				t.Fatalf("node %d write: %v", i, err)
			}
			n.Release(r)
		}
	}
	cl.Run(0)

	// Two mutator goroutines share node 0 while its pool collects with two
	// workers. Their first acquires fetch the tokens nodes 1 and 2 took
	// above, so synchronous calls leave node 0 while a collection holds or
	// waits for its lock. Each goroutine increments field 1 of its own half
	// of the objects; nobody else writes there, so every increment counts.
	const sharedRounds = 6
	var mutators sync.WaitGroup
	mutatorsDone := make(chan struct{})
	for g := 0; g < 2; g++ {
		mutators.Add(1)
		go func(g int) {
			defer mutators.Done()
			for round := 0; round < sharedRounds; round++ {
				for k := g; k < len(objs); k += 2 {
					r := objs[k]
					if err := n0.AcquireWrite(r); err != nil {
						t.Errorf("mutator %d acquire %v: %v", g, r, err)
						return
					}
					v, err := n0.ReadWord(r, 1)
					if err == nil {
						err = n0.WriteWord(r, 1, v+1)
					}
					n0.Release(r)
					if err != nil {
						t.Errorf("mutator %d increment %v: %v", g, r, err)
						return
					}
				}
			}
		}(g)
	}
	go func() { mutators.Wait(); close(mutatorsDone) }()
	sharedCollections := 0
	for running := true; running; sharedCollections++ {
		select {
		case <-mutatorsDone:
			running = false
		default:
		}
		n0.CollectBunches(bunches, 2)
	}
	cl.Run(0)
	t.Logf("node 0 ran %d two-worker collections under two mutators", sharedCollections)
	for _, r := range objs {
		if got, err := n0.ReadWord(r, 1); err != nil || got != sharedRounds {
			t.Errorf("%v field 1 = %d (err %v), want %d increments", r, got, err, sharedRounds)
		}
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated after shared-node mutators:\n%v", bad)
	}

	for i := 0; i < cl.Nodes(); i++ {
		n := cl.Node(i)
		st := n.CollectBunches(n.Collector().MappedBunches(), 4)
		if st.Bunches == 0 {
			t.Fatalf("node %d collected no bunches", i)
		}
		if i == 0 {
			// Only node 0 holds roots, so only its collection is
			// guaranteed to do priced work.
			if st.CPUTicks == 0 {
				t.Errorf("node 0: CollectStats.CPUTicks = 0, want > 0")
			}
			if st.WallNS <= 0 {
				t.Errorf("node 0: CollectStats.WallNS = %d, want > 0", st.WallNS)
			}
		}
		n.FlushLocations()
		cl.Run(0)
	}

	st := cl.Stats()
	if got := st.SumPrefix("dsm.acquire.r.gc") + st.SumPrefix("dsm.acquire.w.gc"); got != 0 {
		t.Errorf("parallel GC acquired %d DSM tokens; the paper's claim requires 0", got)
	}
	if got := st.Get("dsm.invalidation.gc"); got != 0 {
		t.Errorf("parallel GC caused %d invalidations; the paper's claim requires 0", got)
	}
	if got, want := st.Get("gc.parallel.runs"), int64(cl.Nodes()+sharedCollections); got != want {
		t.Errorf("gc.parallel.runs = %d, want %d", got, want)
	}
	if got := st.Get("gc.parallel.workers"); got == 0 {
		t.Errorf("gc.parallel.workers = 0, want > 0")
	}
	if got := st.Get("gc.parallel.bunches"); got == 0 {
		t.Errorf("gc.parallel.bunches = 0, want > 0")
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated:\n%v", bad)
	}
}

// TestCollectBunchesSerialFallback pins the workers<=1 path: it must run
// entirely under the node lock (no Locked callback), produce the same
// merged shape as the pool, and leave gc.parallel.* untouched.
func TestCollectBunchesSerialFallback(t *testing.T) {
	cl := New(Config{Nodes: 1})
	n := cl.Node(0)
	var bunches []addr.BunchID
	for i := 0; i < 3; i++ {
		b := n.NewBunch()
		bunches = append(bunches, b)
		r := n.MustAlloc(b, 4)
		n.AddRoot(r)
	}
	st := n.CollectBunches(bunches, 1)
	if st.Bunches != 3 {
		t.Fatalf("serial fallback collected %d bunches, want 3", st.Bunches)
	}
	if st.LiveStrong == 0 {
		t.Fatalf("serial fallback found no live objects")
	}
	if st.WallNS <= 0 {
		t.Fatalf("serial fallback WallNS = %d, want > 0", st.WallNS)
	}
	if got := cl.Stats().Get("gc.parallel.runs"); got != 0 {
		t.Fatalf("serial fallback bumped gc.parallel.runs to %d", got)
	}
	if bad := cl.CheckInvariants(); len(bad) != 0 {
		t.Fatalf("invariants violated:\n%v", bad)
	}
}
