package dsm

import (
	"math"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/transport"
	"bmx/internal/transport/wiretest"
)

// Every DSM payload round-trips through its registered codec: zero
// values, nil against empty slices, extreme numbers, and grant replies
// carrying nested images, manifests and an intra-bunch SSP request.
func TestWirePayloadRoundTrip(t *testing.T) {
	m := Manifest{OID: 7, Addr: 0x10008, Size: 3, Bunch: 2, Epoch: math.MaxUint64}
	img := ObjectImage{Manifest: m, Words: []uint64{0, math.MaxUint64, 0x10010},
		RefMask: []bool{false, true, true, false, false, false, false, false, true}}
	for _, v := range []any{
		acquireReq{},
		acquireReq{O: 9, Mode: ModeWrite, Requester: 2, RequesterGen: 5, Class: transport.ClassGC,
			Hops: 3, Via: []addr.NodeID{2, 0, addr.NoNode}, Piggyback: []Manifest{m, {Size: -1}}},
		acquireReq{Via: []addr.NodeID{}, Piggyback: []Manifest{}},
		acquireReply{},
		acquireReply{Image: img, Manifests: []Manifest{m},
			Intra: &IntraSSPReq{OID: 9, Bunch: math.MaxUint32, OldOwner: 1,
				Replicate: []ReplicatedStub{{SrcOID: 1, TargetOID: 2, TargetBunch: 3}}},
			Granter: addr.NoNode, Hops: -1, Path: []PathEntry{{Node: 0, Gen: 4}, {Node: 2}}},
		acquireReply{Image: ObjectImage{Words: []uint64{}, RefMask: []bool{}}, Intra: &IntraSSPReq{}},
		invalidateReq{O: math.MaxUint64, Class: transport.ClassPlace},
		LocMsg{O: 1, From: 2, Manifests: []Manifest{m, m}},
		LocBatchMsg{From: 1, Entries: []LocMsg{{O: 1, From: 1}, {Manifests: []Manifest{}}}},
		LocBatchMsg{Entries: []LocMsg{}},
	} {
		wiretest.RoundTrip(t, v)
	}
}

// A grant reply whose RefMask count sits at the top of the uint64 range
// is rejected rather than wrapping the packed-bit byte count to zero.
func TestWireRejectsHugeRefMask(t *testing.T) {
	b, err := transport.AppendPayload(nil, acquireReply{})
	if err != nil {
		t.Fatal(err)
	}
	// The tag, five zero manifest fields, an empty Words, then the count.
	crafted := []byte{b[0], 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if v, err := transport.DecodePayload(crafted); err == nil {
		t.Fatalf("% x decoded to %#v", crafted, v)
	}
}
