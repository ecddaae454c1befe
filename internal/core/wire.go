package core

import (
	"bmx/internal/addr"
	"bmx/internal/dsm"
	"bmx/internal/transport"
)

// Wire codecs for the collector's message payloads, so the TCP transport
// can ship them between processes (the simnet transport passes them as
// in-memory values and needs none of this). Fields go in declaration
// order; maps go in ascending key order.
const (
	tagLocFlushMsg transport.PayloadTag = iota + 32
	tagDeadNoticeMsg
	tagCopyOutReq
	tagCopyOutReply
	tagAddrChangeMsg
)

func init() {
	transport.RegisterPayload(tagLocFlushMsg, appendLocFlushMsg, readLocFlushMsg)
	transport.RegisterPayload(tagDeadNoticeMsg, appendDeadNoticeMsg, readDeadNoticeMsg)
	transport.RegisterPayload(tagCopyOutReq, appendCopyOutReq, readCopyOutReq)
	transport.RegisterPayload(tagCopyOutReply, appendCopyOutReply, readCopyOutReply)
	transport.RegisterPayload(tagAddrChangeMsg, appendAddrChangeMsg, readAddrChangeMsg)
}

func appendOIDs(dst []byte, oids []addr.OID) []byte {
	return transport.AppendSlice(dst, oids, transport.AppendUint[addr.OID])
}

func readOIDs(r *transport.WireReader) []addr.OID {
	return transport.ReadSlice(r, 1, transport.ReadUint[addr.OID])
}

func appendLocFlushMsg(dst []byte, m LocFlushMsg) []byte {
	return dsm.AppendManifests(transport.AppendNodeID(dst, m.From), m.Manifests)
}

func readLocFlushMsg(r *transport.WireReader) LocFlushMsg {
	return LocFlushMsg{From: r.NodeID(), Manifests: dsm.ReadManifests(r)}
}

func appendDeadNoticeMsg(dst []byte, m DeadNoticeMsg) []byte {
	return appendOIDs(transport.AppendNodeID(dst, m.From), m.OIDs)
}

func readDeadNoticeMsg(r *transport.WireReader) DeadNoticeMsg {
	return DeadNoticeMsg{From: r.NodeID(), OIDs: readOIDs(r)}
}

func appendCopyOutReq(dst []byte, m CopyOutReq) []byte {
	return appendOIDs(transport.AppendNodeID(dst, m.From), m.OIDs)
}

func readCopyOutReq(r *transport.WireReader) CopyOutReq {
	return CopyOutReq{From: r.NodeID(), OIDs: readOIDs(r)}
}

func appendCopyOutReply(dst []byte, m CopyOutReply) []byte {
	dst = dsm.AppendManifests(dst, m.Manifests)
	return transport.AppendMap(dst, m.NotOwned, transport.AppendUint[addr.OID], transport.AppendNodeID)
}

func readCopyOutReply(r *transport.WireReader) CopyOutReply {
	return CopyOutReply{
		Manifests: dsm.ReadManifests(r),
		NotOwned:  transport.ReadMap(r, 2, transport.ReadUint[addr.OID], (*transport.WireReader).NodeID),
	}
}

func appendAddrChangeMsg(dst []byte, m AddrChangeMsg) []byte {
	dst = transport.AppendNodeID(dst, m.From)
	dst = transport.AppendUint(dst, m.Bunch)
	dst = transport.AppendUint(dst, m.Seg)
	dst = dsm.AppendManifests(dst, m.Manifests)
	return transport.AppendSlice(dst, m.Headers, func(dst []byte, h SegHeader) []byte {
		return transport.AppendUint(transport.AppendUint(dst, h.Old), h.OID)
	})
}

func readAddrChangeMsg(r *transport.WireReader) AddrChangeMsg {
	return AddrChangeMsg{
		From:      r.NodeID(),
		Bunch:     transport.ReadUint[addr.BunchID](r),
		Seg:       transport.ReadUint[addr.SegID](r),
		Manifests: dsm.ReadManifests(r),
		Headers: transport.ReadSlice(r, 2, func(r *transport.WireReader) SegHeader {
			return SegHeader{Old: transport.ReadUint[addr.Addr](r), OID: transport.ReadUint[addr.OID](r)}
		}),
	}
}
