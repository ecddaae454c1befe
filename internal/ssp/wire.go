package ssp

import (
	"bmx/internal/addr"
	"bmx/internal/transport"
)

// Wire codecs for the SSP message payloads on the multi-process TCP
// transport. Fields go in declaration order.
const (
	tagScionMsg transport.PayloadTag = iota + 48
	tagTableMsg
)

func init() {
	transport.RegisterPayload(tagScionMsg, appendScionMsg, readScionMsg)
	transport.RegisterPayload(tagTableMsg, appendTableMsg, readTableMsg)
}

func appendScionMsg(dst []byte, m ScionMsg) []byte {
	s := m.Scion
	dst = transport.AppendUint(dst, s.TargetOID)
	dst = transport.AppendUint(dst, s.TargetBunch)
	dst = transport.AppendUint(dst, s.SrcOID)
	dst = transport.AppendUint(dst, s.SrcBunch)
	dst = transport.AppendNodeID(dst, s.SrcNode)
	return transport.AppendUint(dst, s.CreatedGen)
}

func readScionMsg(r *transport.WireReader) ScionMsg {
	return ScionMsg{Scion: InterScion{
		TargetOID:   transport.ReadUint[addr.OID](r),
		TargetBunch: transport.ReadUint[addr.BunchID](r),
		SrcOID:      transport.ReadUint[addr.OID](r),
		SrcBunch:    transport.ReadUint[addr.BunchID](r),
		SrcNode:     r.NodeID(),
		CreatedGen:  r.Uvarint(),
	}}
}

func appendTableMsg(dst []byte, m TableMsg) []byte {
	dst = transport.AppendNodeID(dst, m.From)
	dst = transport.AppendUint(dst, m.Bunch)
	dst = transport.AppendUint(dst, m.Gen)
	dst = transport.AppendSlice(dst, m.InterStubs, appendInterStub)
	dst = transport.AppendSlice(dst, m.IntraStubs, appendIntraStub)
	dst = transport.AppendSlice(dst, m.Exiting, transport.AppendUint[addr.OID])
	return transport.AppendSlice(dst, m.Derivative, transport.AppendUint[addr.OID])
}

func readTableMsg(r *transport.WireReader) TableMsg {
	return TableMsg{
		From:       r.NodeID(),
		Bunch:      transport.ReadUint[addr.BunchID](r),
		Gen:        r.Uvarint(),
		InterStubs: transport.ReadSlice(r, 5, readInterStub),
		IntraStubs: transport.ReadSlice(r, 3, readIntraStub),
		Exiting:    transport.ReadSlice(r, 1, transport.ReadUint[addr.OID]),
		Derivative: transport.ReadSlice(r, 1, transport.ReadUint[addr.OID]),
	}
}

func appendInterStub(dst []byte, s InterStub) []byte {
	dst = transport.AppendUint(dst, s.SrcOID)
	dst = transport.AppendUint(dst, s.SrcBunch)
	dst = transport.AppendUint(dst, s.TargetOID)
	dst = transport.AppendUint(dst, s.TargetBunch)
	return transport.AppendNodeID(dst, s.ScionNode)
}

func readInterStub(r *transport.WireReader) InterStub {
	return InterStub{
		SrcOID:      transport.ReadUint[addr.OID](r),
		SrcBunch:    transport.ReadUint[addr.BunchID](r),
		TargetOID:   transport.ReadUint[addr.OID](r),
		TargetBunch: transport.ReadUint[addr.BunchID](r),
		ScionNode:   r.NodeID(),
	}
}

func appendIntraStub(dst []byte, s IntraStub) []byte {
	dst = transport.AppendUint(dst, s.OID)
	dst = transport.AppendUint(dst, s.Bunch)
	return transport.AppendNodeID(dst, s.OldOwner)
}

func readIntraStub(r *transport.WireReader) IntraStub {
	return IntraStub{
		OID:      transport.ReadUint[addr.OID](r),
		Bunch:    transport.ReadUint[addr.BunchID](r),
		OldOwner: r.NodeID(),
	}
}
