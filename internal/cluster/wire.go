package cluster

import (
	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/mem"
	"bmx/internal/transport"
)

// Wire codecs for the cluster-level payloads on the multi-process TCP
// transport: bunch mapping and the forwarded directory service. Fields go
// in declaration order.
const (
	tagMapBunchReq transport.PayloadTag = iota + 64
	tagMapBunchReply
	tagDirReq
	tagDirReply
)

func init() {
	transport.RegisterPayload(tagMapBunchReq, appendMapBunchReq, readMapBunchReq)
	transport.RegisterPayload(tagMapBunchReply, appendMapBunchReply, readMapBunchReply)
	transport.RegisterPayload(tagDirReq, appendDirReq, readDirReq)
	transport.RegisterPayload(tagDirReply, appendDirReply, readDirReply)
}

func appendMapBunchReq(dst []byte, q mapBunchReq) []byte {
	return transport.AppendUint(transport.AppendUint(dst, q.Bunch), q.Gen)
}

func readMapBunchReq(r *transport.WireReader) mapBunchReq {
	return mapBunchReq{Bunch: transport.ReadUint[addr.BunchID](r), Gen: r.Uvarint()}
}

func appendMapBunchReply(dst []byte, p mapBunchReply) []byte {
	return transport.AppendSlice(dst, p.Images, appendSegImage)
}

func readMapBunchReply(r *transport.WireReader) mapBunchReply {
	return mapBunchReply{Images: transport.ReadSlice(r, 7, readSegImage)}
}

func appendWords(dst []byte, ws []uint64) []byte {
	return transport.AppendSlice(dst, ws, transport.AppendUint[uint64])
}

func readWords(r *transport.WireReader) []uint64 {
	return transport.ReadSlice(r, 1, transport.ReadUint[uint64])
}

func appendSegImage(dst []byte, img mem.SegImage) []byte {
	dst = transport.AppendUint(dst, img.ID)
	dst = transport.AppendUint(dst, img.Bunch)
	dst = transport.AppendUint(dst, img.Gen)
	dst = transport.AppendInt(dst, img.AllocOff)
	dst = appendWords(dst, img.Words)
	dst = appendWords(dst, img.ObjBits)
	return appendWords(dst, img.RefBits)
}

func readSegImage(r *transport.WireReader) mem.SegImage {
	return mem.SegImage{
		ID:       transport.ReadUint[addr.SegID](r),
		Bunch:    transport.ReadUint[addr.BunchID](r),
		Gen:      transport.ReadUint[uint32](r),
		AllocOff: transport.ReadInt[int](r),
		Words:    readWords(r),
		ObjBits:  readWords(r),
		RefBits:  readWords(r),
	}
}

func appendSegmentMeta(dst []byte, m mem.SegmentMeta) []byte {
	dst = transport.AppendUint(dst, m.ID)
	dst = transport.AppendUint(dst, m.Base)
	dst = transport.AppendUint(dst, m.Bunch)
	dst = transport.AppendInt(dst, m.Words)
	return transport.AppendUint(dst, m.Gen)
}

func readSegmentMeta(r *transport.WireReader) mem.SegmentMeta {
	return mem.SegmentMeta{
		ID:    transport.ReadUint[addr.SegID](r),
		Base:  transport.ReadUint[addr.Addr](r),
		Bunch: transport.ReadUint[addr.BunchID](r),
		Words: transport.ReadInt[int](r),
		Gen:   transport.ReadUint[uint32](r),
	}
}

func appendObjInfo(dst []byte, i core.ObjInfo) []byte {
	dst = transport.AppendUint(dst, i.OID)
	dst = transport.AppendUint(dst, i.Bunch)
	dst = transport.AppendInt(dst, i.Size)
	dst = transport.AppendNodeID(dst, i.AllocNode)
	return transport.AppendUint(dst, i.AllocAddr)
}

func readObjInfo(r *transport.WireReader) core.ObjInfo {
	return core.ObjInfo{
		OID:       transport.ReadUint[addr.OID](r),
		Bunch:     transport.ReadUint[addr.BunchID](r),
		Size:      transport.ReadInt[int](r),
		AllocNode: r.NodeID(),
		AllocAddr: transport.ReadUint[addr.Addr](r),
	}
}

func appendDirReq(dst []byte, q dirReq) []byte {
	dst = transport.AppendUint(dst, q.B)
	dst = transport.AppendNodeID(dst, q.Node)
	dst = transport.AppendUint(dst, q.Seg)
	dst = transport.AppendUint(dst, q.O)
	dst = transport.AppendUint(dst, q.A)
	return appendObjInfo(dst, q.Info)
}

func readDirReq(r *transport.WireReader) dirReq {
	return dirReq{
		B:    transport.ReadUint[addr.BunchID](r),
		Node: r.NodeID(),
		Seg:  transport.ReadUint[addr.SegID](r),
		O:    transport.ReadUint[addr.OID](r),
		A:    transport.ReadUint[addr.Addr](r),
		Info: readObjInfo(r),
	}
}

func appendDirReply(dst []byte, p dirReply) []byte {
	dst = transport.AppendUint(dst, p.B)
	dst = transport.AppendSlice(dst, p.Bs, transport.AppendUint[addr.BunchID])
	dst = transport.AppendNodeID(dst, p.Node)
	dst = transport.AppendSlice(dst, p.Nodes, transport.AppendNodeID)
	dst = transport.AppendUint(dst, p.O)
	dst = transport.AppendSlice(dst, p.OIDs, transport.AppendUint[addr.OID])
	dst = appendSegmentMeta(dst, p.Meta)
	dst = transport.AppendSlice(dst, p.Metas, appendSegmentMeta)
	dst = appendObjInfo(dst, p.Info)
	dst = transport.AppendInt(dst, p.N)
	return transport.AppendBool(dst, p.Ok)
}

func readDirReply(r *transport.WireReader) dirReply {
	return dirReply{
		B:     transport.ReadUint[addr.BunchID](r),
		Bs:    transport.ReadSlice(r, 1, transport.ReadUint[addr.BunchID]),
		Node:  r.NodeID(),
		Nodes: transport.ReadSlice(r, 1, (*transport.WireReader).NodeID),
		O:     transport.ReadUint[addr.OID](r),
		OIDs:  transport.ReadSlice(r, 1, transport.ReadUint[addr.OID]),
		Meta:  readSegmentMeta(r),
		Metas: transport.ReadSlice(r, 5, readSegmentMeta),
		Info:  readObjInfo(r),
		N:     transport.ReadInt[int](r),
		Ok:    r.Bool(),
	}
}
