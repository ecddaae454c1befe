package cluster

import (
	"math"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/mem"
	"bmx/internal/transport/wiretest"
)

// Every cluster payload round-trips through its registered codec: bunch
// mapping with nested segment images, and the directory's request and
// reply with nil against empty slices and extreme numbers.
func TestWirePayloadRoundTrip(t *testing.T) {
	img := mem.SegImage{ID: 3, Bunch: 1, Gen: math.MaxUint32, AllocOff: 12,
		Words: []uint64{math.MaxUint64, 0, 0x1008}, ObjBits: []uint64{5}, RefBits: []uint64{}}
	meta := mem.SegmentMeta{ID: addr.NoSeg, Base: 0x1000, Bunch: 2, Words: 512, Gen: 1}
	info := core.ObjInfo{OID: 9, Bunch: 1, Size: 4, AllocNode: addr.NoNode, AllocAddr: 0x1010}
	for _, v := range []any{
		mapBunchReq{},
		mapBunchReq{Bunch: math.MaxUint32, Gen: math.MaxUint64},
		mapBunchReply{},
		mapBunchReply{Images: []mem.SegImage{img, {}}},
		mapBunchReply{Images: []mem.SegImage{}},
		dirReq{},
		dirReq{B: 1, Node: 2, Seg: 3, O: 4, A: 0x1000, Info: info},
		dirReply{},
		dirReply{B: 1, Bs: []addr.BunchID{1, 2}, Node: addr.NoNode, Nodes: []addr.NodeID{0, 1},
			O: 9, OIDs: []addr.OID{9}, Meta: meta, Metas: []mem.SegmentMeta{meta, {}},
			Info: info, N: -3, Ok: true},
		dirReply{Bs: []addr.BunchID{}, Nodes: []addr.NodeID{}, OIDs: []addr.OID{}, Metas: []mem.SegmentMeta{}},
	} {
		wiretest.RoundTrip(t, v)
	}
}
