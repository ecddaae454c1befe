package core

import (
	"math"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/transport/wiretest"
)

// Every collector payload round-trips through its registered codec,
// including nil against empty slices and maps and extreme numbers.
func TestWirePayloadRoundTrip(t *testing.T) {
	m := dsm.Manifest{OID: 3, Addr: math.MaxUint64, Size: 2, Bunch: 1, Epoch: 9}
	for _, v := range []any{
		LocFlushMsg{},
		LocFlushMsg{From: 2, Manifests: []dsm.Manifest{m, {}}},
		DeadNoticeMsg{From: addr.NoNode, OIDs: []addr.OID{1, math.MaxUint64}},
		DeadNoticeMsg{OIDs: []addr.OID{}},
		CopyOutReq{From: 1, OIDs: []addr.OID{5}},
		CopyOutReply{},
		CopyOutReply{Manifests: []dsm.Manifest{}, NotOwned: map[addr.OID]addr.NodeID{}},
		CopyOutReply{Manifests: []dsm.Manifest{m},
			NotOwned: map[addr.OID]addr.NodeID{9: 0, 1: 2, math.MaxUint64: addr.NoNode}},
		AddrChangeMsg{From: 1, Bunch: 2, Segs: []addr.SegID{0, 7, addr.NoSeg}, Manifests: []dsm.Manifest{m, {}}},
		AddrChangeMsg{Segs: []addr.SegID{}, Manifests: []dsm.Manifest{}},
	} {
		wiretest.RoundTrip(t, v)
	}
}
