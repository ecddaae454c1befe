package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"bmx"
	"bmx/internal/transport"
)

// tcp-writes: 3 peers in this process over loopback TCP on ephemeral
// ports, sharing a small set of objects mapped at every peer. Half the ops
// write, and the writer rotates every tcpRotateEvery ops, so most ops move
// a token over a real socket through the payload codec. After every round
// each peer collects and flushes locations, then control pings between
// the peers probe the bare transport.
const (
	tcpPeers       = 3
	tcpObjects     = 64
	tcpWriteFrac   = 0.5
	tcpRotateEvery = 20
	tcpOpsPerRound = 500
	tcpWarmup      = 2
	// tcpRoundsPerSecond sizes the timed window (see roundsPerSecond).
	tcpRoundsPerSecond = 3
	tcpPing            = "ctl.ping"
	// tcpPingsPerRound per peer gives a traced run over a thousand pings,
	// enough for a p99 with ten samples beyond it.
	tcpPingsPerRound = 20
	// tcpPingWords is the ping's payload, a small object's worth of words;
	// the reply is their sum.
	tcpPingWords = 4
)

type tcpWrites struct {
	seed  int64
	rng   *rand.Rand
	peers []*bmx.Peer
	b     bmx.BunchID
	web   *web
	op    int64
	pings uint64
}

func newTCPWrites(seed int64) *tcpWrites { return &tcpWrites{seed: seed} }

func (t *tcpWrites) traits() traits           { return traits{tcp: true} }
func (t *tcpWrites) warmupRounds() int        { return tcpWarmup }
func (t *tcpWrites) roundsPerSecond() float64 { return tcpRoundsPerSecond }
func (t *tcpWrites) afterRound(*driver)       {}

func (t *tcpWrites) stats() []*bmx.Stats {
	var out []*bmx.Stats
	for _, p := range t.peers {
		out = append(out, p.Cluster().Stats())
	}
	return out
}

func (t *tcpWrites) close() {
	for _, p := range t.peers {
		p.Close()
	}
	t.peers = nil
}

// loopbackAddrs reserves n loopback addresses. Every peer must know the
// whole address set before it starts, so each port is bound, noted and
// released. The ports lie below the kernel's ephemeral range (32768 and up
// on Linux): a peer that is already dialling can then never be handed one
// of them as the local port of its outgoing connection before the peer
// that owns it binds it.
func loopbackAddrs(n int) ([]string, error) {
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	var ls []net.Listener
	defer func() {
		for _, l := range ls {
			l.Close()
		}
	}()
	var addrs []string
	for tries := 0; len(addrs) < n; tries++ {
		if tries == 1000 {
			return nil, fmt.Errorf("no free loopback port in 20000-31999")
		}
		l, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", 20000+rng.Intn(12000)))
		if err != nil {
			continue
		}
		ls = append(ls, l)
		addrs = append(addrs, l.Addr().String())
	}
	return addrs, nil
}

func (t *tcpWrites) setup() error {
	t.rng = rand.New(rand.NewSource(t.seed))
	addrs, err := loopbackAddrs(tcpPeers)
	if err != nil {
		return err
	}
	for i, a := range addrs {
		var others []string
		for j, o := range addrs {
			if j != i {
				others = append(others, o)
			}
		}
		p, err := bmx.NewPeer(bmx.PeerConfig{Listen: a, Peers: others, Seed: t.seed + int64(i)})
		if err != nil {
			return fmt.Errorf("peer %s: %w", a, err)
		}
		p.SetControl(pingHandler)
		t.peers = append(t.peers, p)
	}
	for _, p := range t.peers {
		if err := p.WaitReady(10 * time.Second); err != nil {
			return fmt.Errorf("mesh connect: %w", err)
		}
	}
	// Peers are indexed by node ID from here on; node 0 holds the directory.
	byID := make([]*bmx.Peer, tcpPeers)
	for _, p := range t.peers {
		byID[p.ID()] = p
	}
	t.peers = byID
	seed := t.peers[0].Node()
	t.b = seed.NewBunch()
	if t.web, err = buildWeb(seed, t.b, tcpObjects, 2, t.rng); err != nil {
		return err
	}
	for _, p := range t.peers[1:] {
		if err := p.Node().MapBunch(t.b); err != nil {
			return fmt.Errorf("map at %v: %w", p.ID(), err)
		}
		if err := t.web.share(p.Node(), t.web.objs); err != nil {
			return err
		}
	}
	return nil
}

func (t *tcpWrites) round(d *driver) error {
	for i := 0; i < tcpOpsPerRound; i++ {
		n := t.peers[int(t.op/tcpRotateEvery)%tcpPeers].Node()
		t.op++
		idx := t.rng.Intn(tcpObjects)
		if t.rng.Float64() < tcpWriteFrac {
			t.web.writeOp(d, n, idx, t.rng.Uint64())
		} else {
			t.web.readOp(d, n, idx)
		}
	}
	for _, p := range t.peers {
		d.collect(p.Node(), t.b)
		d.timed(spanFlush, p.Node().FlushLocations)
	}
	// Control pings from each peer to the next, to a trivial handler, so
	// they time the transport and the payload codec alone.
	for i, p := range t.peers {
		to := t.peers[(i+1)%tcpPeers].ID()
		for j := 0; j < tcpPingsPerRound; j++ {
			if err := t.ping(d, p, to); err != nil {
				return fmt.Errorf("ping %v→%v: %w", p.ID(), to, err)
			}
		}
	}
	return nil
}

// ping is one control call whose request and reply both carry a payload,
// so the gob codec runs both ways. Its messages and its time are the
// benchmark's, not the program's: the driver takes them out of the message
// counts and of the round's wall time.
func (t *tcpWrites) ping(d *driver, p *bmx.Peer, to bmx.NodeID) error {
	t.pings++
	words := make([]uint64, tcpPingWords)
	var want uint64
	for i := range words {
		words[i] = t.pings<<8 + uint64(i)
		want += words[i]
	}
	var al0 uint64
	if d.tr != nil {
		al0 = d.rt.allocs()
	}
	var reply any
	var err error
	t0 := time.Now()
	d.timed(spanCtlPing, func() { reply, err = p.Control(to, tcpPing, words, 8*tcpPingWords) })
	d.probeWall += time.Since(t0)
	if d.tr != nil {
		d.pings++
		d.pingAllocs += int64(d.rt.allocs() - al0)
	}
	if d.timing {
		d.probeMsgs += 2
		d.probeBytes += 8*tcpPingWords + 8
	}
	if err != nil {
		return err
	}
	if got, ok := reply.(uint64); !ok || got != want {
		return fmt.Errorf("ping reply %v, want %d", reply, want)
	}
	return nil
}

// pingHandler answers a ping with the sum of its words.
func pingHandler(m transport.Msg) (any, int, error) {
	words, ok := m.Payload.([]uint64)
	if !ok {
		return nil, 0, fmt.Errorf("ping payload %T", m.Payload)
	}
	var sum uint64
	for _, w := range words {
		sum += w
	}
	return sum, 8, nil
}

func (t *tcpWrites) check(d *driver) []string {
	// Cluster.CheckInvariants audits through every node of one Cluster; a
	// peer's Cluster holds only its own node, so the cross-node audit runs
	// on the simulated workloads only. Here: read-back, plus the §5 probe
	// at every peer.
	bad := t.web.readBack(t.peers[0].Node())
	for _, p := range t.peers {
		st := snapshot(p.Cluster().Stats())
		if n := st.collectorTokens(); n != 0 {
			bad = append(bad, fmt.Sprintf("peer %v: collector acquired %d tokens or caused invalidations", p.ID(), n))
		}
	}
	return bad
}

func (t *tcpWrites) report(res *result, d *driver) {
	reportNoDeaths(res)
	nodes := make([]*bmx.Node, len(t.peers))
	for i, p := range t.peers {
		nodes[i] = p.Node()
	}
	res.addLayer("mem.mapped_words_per_live_word", "ratio", mappedPerLive(nodes, d), true, "")
}
