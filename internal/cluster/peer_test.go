package cluster

import (
	"net"
	"testing"
	"time"

	"bmx/internal/transport"
)

// reserveAddrs grabs n distinct loopback addresses by binding ephemeral
// listeners and releasing them. The window between release and the peer's
// own bind is racy in principle; in practice the kernel does not reissue an
// ephemeral port that fast, and the multi-process protocol needs the
// address set agreed before any process starts.
func reserveAddrs(t *testing.T, n int) []string {
	t.Helper()
	var ls []net.Listener
	var addrs []string
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	for _, l := range ls {
		l.Close()
	}
	return addrs
}

// startPeers builds one Peer per address (all in this process, each with
// its own TCP transport — the same wiring bmxd uses across processes) and
// waits for the mesh. Teardown closes the seed last: a follower's handlers
// may still be consulting the seed's directory while that follower drains.
func startPeers(t *testing.T, addrs []string) []*Peer {
	t.Helper()
	peers := make([]*Peer, len(addrs))
	t.Cleanup(func() {
		for _, seedPass := range []bool{false, true} {
			for _, p := range peers {
				if p != nil && p.IsSeed() == seedPass {
					p.Close()
				}
			}
		}
	})
	for i, a := range addrs {
		var others []string
		for j, b := range addrs {
			if j != i {
				others = append(others, b)
			}
		}
		p, err := NewPeer(PeerConfig{Listen: a, Peers: others, Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		peers[i] = p
	}
	for _, p := range peers {
		if err := p.WaitReady(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return peers
}

func seedOf(t *testing.T, peers []*Peer) *Peer {
	t.Helper()
	for _, p := range peers {
		if p.IsSeed() {
			return p
		}
	}
	t.Fatal("no seed among peers")
	return nil
}

// Three single-node clusters over real sockets behave like the simulated
// three-node cluster: the seed allocates a shared structure, the others map
// the bunch through the directory proxy, write tokens migrate between
// processes, every replica runs its bunch collector, and the paper's §5
// probe (zero collector-initiated acquires) holds in every process.
func TestPeerClusterSharedMutationAndGC(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 3))
	seed := seedOf(t, peers)
	sn := seed.Node()

	b := sn.NewBunch()
	var objs []Ref
	for i := 0; i < 8; i++ {
		o := sn.MustAlloc(b, 4)
		sn.AddRoot(o)
		objs = append(objs, o)
		if err := sn.AcquireWrite(o); err != nil {
			t.Fatal(err)
		}
		if err := sn.WriteWord(o, 1, uint64(100+i)); err != nil {
			t.Fatal(err)
		}
		sn.Release(o)
	}

	// Every other process maps the bunch via the remote directory and takes
	// write tokens away from the seed.
	round := uint64(0)
	for _, p := range peers {
		if p.IsSeed() {
			continue
		}
		if err := p.Node().MapBunch(b); err != nil {
			t.Fatalf("peer %v map: %v", p.ID(), err)
		}
		round++
		for i, o := range objs {
			if err := p.Node().AcquireWrite(o); err != nil {
				t.Fatalf("peer %v acquire %v: %v", p.ID(), o, err)
			}
			if err := p.Node().WriteWord(o, 1, 1000*round+uint64(i)); err != nil {
				t.Fatal(err)
			}
			p.Node().Release(o)
		}
	}

	// Collections at every replica, then location flushes.
	for _, p := range peers {
		p.Node().CollectBunch(b)
		p.Node().FlushLocations()
	}

	// The seed re-acquires and must observe the last writer's values.
	for i, o := range objs {
		if err := sn.AcquireRead(o); err != nil {
			t.Fatalf("seed re-acquire %v: %v", o, err)
		}
		v, err := sn.ReadWord(o, 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := 1000*round + uint64(i); v != want {
			t.Fatalf("object %v: read %d, want %d", o, v, want)
		}
		sn.Release(o)
	}

	// §5, per process: the collector acquired no token and caused no
	// invalidation anywhere in the cluster.
	for _, p := range peers {
		st := p.Cluster().Stats()
		if n := st.Get("dsm.acquire.r.gc") + st.Get("dsm.acquire.w.gc"); n != 0 {
			t.Errorf("peer %v: collector acquired %d tokens", p.ID(), n)
		}
		if n := st.Get("dsm.invalidation.gc"); n != 0 {
			t.Errorf("peer %v: collector caused %d invalidations", p.ID(), n)
		}
	}
}

// The driver-control channel: a ctl call round-trips to a registered
// handler and an unregistered peer reports a clean error.
func TestPeerControlChannel(t *testing.T) {
	peers := startPeers(t, reserveAddrs(t, 2))
	seed := seedOf(t, peers)
	var other *Peer
	for _, p := range peers {
		if !p.IsSeed() {
			other = p
		}
	}
	other.SetControl(func(m transport.Msg) (any, int, error) {
		if m.Kind != "ctl.ping" {
			t.Errorf("unexpected ctl kind %q", m.Kind)
		}
		return m.Payload.(int) + 1, 8, nil
	})
	raw, err := seed.Control(other.ID(), "ctl.ping", 41, 8)
	if err != nil {
		t.Fatal(err)
	}
	if raw.(int) != 42 {
		t.Fatalf("ctl reply = %v, want 42", raw)
	}
	if _, err := other.Control(seed.ID(), "ctl.ping", 1, 8); err == nil {
		t.Fatal("ctl call to handlerless seed should fail")
	}
}
