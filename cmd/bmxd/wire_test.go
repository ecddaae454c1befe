package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"bmx/internal/obs/heat"
	"bmx/internal/transport"
	"bmx/internal/transport/wiretest"
)

// wantPayloadTags pins the whole payload tag table of the bmxd binary,
// which links every protocol package. A payload type registered, renamed,
// renumbered or dropped must be reflected here on purpose.
var wantPayloadTags = []string{
	"1 int", "2 int64", "3 uint64", "4 string", "5 bool", "6 []uint8", "7 []uint64", "8 []string",
	"16 dsm.acquireReq", "17 dsm.acquireReply", "18 dsm.invalidateReq", "19 dsm.LocMsg", "20 dsm.LocBatchMsg",
	"32 core.LocFlushMsg", "33 core.DeadNoticeMsg", "34 core.CopyOutReq", "35 core.CopyOutReply", "36 core.AddrChangeMsg",
	"48 ssp.ScionMsg", "49 ssp.TableMsg",
	"64 cluster.mapBunchReq", "65 cluster.mapBunchReply", "66 cluster.dirReq", "67 cluster.dirReply",
	"80 main.ctlMapReq", "81 main.ctlMutateReq", "82 main.ctlAck", "83 main.ctlStatsReply", "84 main.ctlHeatReply",
}

func TestPayloadTagTable(t *testing.T) {
	var got []string
	for _, p := range transport.PayloadTypes() {
		got = append(got, fmt.Sprintf("%d %v", p.Tag, p.Type))
	}
	if !reflect.DeepEqual(got, wantPayloadTags) {
		t.Fatalf("payload tag table changed:\n got %q\nwant %q", got, wantPayloadTags)
	}
}

// Randomly generated values of every registered type, every field filled
// in, survive the codec: a field added to a payload struct without its
// encoder and decoder fails here.
func TestPayloadRoundTripEveryTag(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range transport.PayloadTypes() {
		for i := 0; i < 50; i++ {
			wiretest.RoundTrip(t, wiretest.Random(p.Type, rng))
		}
		wiretest.RoundTrip(t, reflect.New(p.Type).Elem().Interface())
	}
}

func TestCtlPayloadRoundTrip(t *testing.T) {
	owner := int32(-1)
	for _, v := range []any{
		ctlMapReq{Bunch: math.MaxUint32},
		ctlMutateReq{OIDs: []uint64{1, math.MaxUint64}, Round: 7},
		ctlMutateReq{OIDs: []uint64{}},
		ctlAck{N: -5},
		ctlStatsReply{Counters: map[string]int64{"msg.sent.app": 10, "": math.MinInt64}},
		ctlStatsReply{Counters: map[string]int64{}},
		ctlHeatReply{Rows: []heat.Row{{Heat: 1, OID: 9, Bunch: 2, Node: 1, Reads: 3, Writes: 4,
			Acquires: 5, Remote: 6, Hops: 7, Recent: 8, Owner: &owner, OwnerTick: math.MaxUint64}, {}}},
		ctlHeatReply{Rows: []heat.Row{}},
	} {
		wiretest.RoundTrip(t, v)
	}
}

// FuzzDecodePayload feeds the payload decoder arbitrary bytes, seeded with
// one encoding of every registered type. Whatever the input, decoding must
// not panic and must not allocate beyond a fixed multiple of the input
// (every count is checked against the bytes that remain), and whatever
// decodes must re-encode to exactly the input bytes: the reader accepts
// only canonical encodings, so decode→encode→decode is a fixpoint.
func FuzzDecodePayload(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range transport.PayloadTypes() {
		b, err := transport.AppendPayload(nil, wiretest.Random(p.Type, rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{20, 0xff, 0xff, 0xff, 0xff, 0x0f})
	// An acquireReply (tag 17) whose RefMask count is near 2^64.
	f.Add([]byte{17, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	// ReadMemStats flushes every P's allocation cache first, so its
	// TotalAlloc is exact, unlike the sampled runtime/metrics figure.
	var ms runtime.MemStats
	allocated := func() uint64 {
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		before := allocated()
		v, err := transport.DecodePayload(b)
		if grew := allocated() - before; grew > 64*uint64(len(b))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(b), grew)
		}
		if err != nil {
			return
		}
		b2, err := transport.AppendPayload(nil, v)
		if err != nil {
			t.Fatalf("decoded %T failed to re-encode: %v", v, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("%T accepted a non-canonical encoding:\n input % x\nre-enc % x", v, b, b2)
		}
	})
}
