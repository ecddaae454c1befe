package dsm

import (
	"bmx/internal/addr"
	"bmx/internal/transport"
)

// Wire codecs for the DSM payloads. The multi-process TCP transport ships
// each payload as its tag plus the fields below, in declaration order (the
// table in PROTOCOL.md); the simnet passes the values in memory and needs
// none of this. Error sentinels that cross the wire register with the
// transport error registry so errors.Is keeps working on the far side of a
// Call.
const (
	tagAcquireReq transport.PayloadTag = iota + 16
	tagAcquireReply
	tagInvalidateReq
	tagLocMsg
)

func init() {
	transport.RegisterPayload(tagAcquireReq, appendAcquireReq, readAcquireReq)
	transport.RegisterPayload(tagAcquireReply, appendAcquireReply, readAcquireReply)
	transport.RegisterPayload(tagInvalidateReq, appendInvalidateReq, readInvalidateReq)
	transport.RegisterPayload(tagLocMsg, appendLocMsg, readLocMsg)
	transport.RegisterWireError("dsm.noOwner", ErrNoOwner)
}

// manifestMinBytes is the shortest encoding of a Manifest: five one-byte
// varints.
const manifestMinBytes = 5

// AppendManifest appends a manifest's wire encoding: OID, Addr, Size,
// Bunch, Epoch. The collector's payloads reuse it.
func AppendManifest(dst []byte, m Manifest) []byte {
	dst = transport.AppendUint(dst, m.OID)
	dst = transport.AppendUint(dst, m.Addr)
	dst = transport.AppendInt(dst, m.Size)
	dst = transport.AppendUint(dst, m.Bunch)
	return transport.AppendUint(dst, m.Epoch)
}

// ReadManifest decodes what AppendManifest wrote.
func ReadManifest(r *transport.WireReader) Manifest {
	return Manifest{
		OID:   transport.ReadUint[addr.OID](r),
		Addr:  transport.ReadUint[addr.Addr](r),
		Size:  transport.ReadInt[int](r),
		Bunch: transport.ReadUint[addr.BunchID](r),
		Epoch: r.Uvarint(),
	}
}

// AppendManifests appends a count and each manifest.
func AppendManifests(dst []byte, ms []Manifest) []byte {
	return transport.AppendSlice(dst, ms, AppendManifest)
}

// ReadManifests decodes what AppendManifests wrote; none is nil.
func ReadManifests(r *transport.WireReader) []Manifest {
	return transport.ReadSlice(r, manifestMinBytes, ReadManifest)
}

func appendAcquireReq(dst []byte, q acquireReq) []byte {
	dst = transport.AppendUint(dst, q.O)
	dst = transport.AppendInt(dst, q.Mode)
	dst = transport.AppendNodeID(dst, q.Requester)
	dst = transport.AppendUint(dst, q.RequesterGen)
	dst = transport.AppendInt(dst, q.Class)
	dst = transport.AppendInt(dst, q.Hops)
	dst = transport.AppendSlice(dst, q.Via, transport.AppendNodeID)
	return AppendManifests(dst, q.Piggyback)
}

func readAcquireReq(r *transport.WireReader) acquireReq {
	return acquireReq{
		O:            transport.ReadUint[addr.OID](r),
		Mode:         transport.ReadInt[Mode](r),
		Requester:    r.NodeID(),
		RequesterGen: r.Uvarint(),
		Class:        transport.ReadInt[transport.Class](r),
		Hops:         transport.ReadInt[int](r),
		Via:          transport.ReadSlice(r, 1, (*transport.WireReader).NodeID),
		Piggyback:    ReadManifests(r),
	}
}

// Reply fields: Image (manifest, words, ref mask), Manifests, Intra (a
// presence byte, then the request), Granter, Hops, Path.
func appendAcquireReply(dst []byte, p acquireReply) []byte {
	dst = AppendManifest(dst, p.Image.Manifest)
	dst = transport.AppendSlice(dst, p.Image.Words, transport.AppendUint[uint64])
	dst = transport.AppendBools(dst, p.Image.RefMask)
	dst = AppendManifests(dst, p.Manifests)
	dst = transport.AppendBool(dst, p.Intra != nil)
	if p.Intra != nil {
		dst = appendIntraSSPReq(dst, p.Intra)
	}
	dst = transport.AppendNodeID(dst, p.Granter)
	dst = transport.AppendInt(dst, p.Hops)
	return transport.AppendSlice(dst, p.Path, appendPathEntry)
}

func readAcquireReply(r *transport.WireReader) acquireReply {
	var p acquireReply
	p.Image.Manifest = ReadManifest(r)
	p.Image.Words = transport.ReadSlice(r, 1, transport.ReadUint[uint64])
	p.Image.RefMask = r.Bools()
	p.Manifests = ReadManifests(r)
	if r.Bool() {
		p.Intra = readIntraSSPReq(r)
	}
	p.Granter = r.NodeID()
	p.Hops = transport.ReadInt[int](r)
	p.Path = transport.ReadSlice(r, 2, readPathEntry)
	return p
}

func appendIntraSSPReq(dst []byte, q *IntraSSPReq) []byte {
	dst = transport.AppendUint(dst, q.OID)
	dst = transport.AppendUint(dst, q.Bunch)
	dst = transport.AppendNodeID(dst, q.OldOwner)
	return transport.AppendSlice(dst, q.Replicate, func(dst []byte, s ReplicatedStub) []byte {
		dst = transport.AppendUint(dst, s.SrcOID)
		dst = transport.AppendUint(dst, s.TargetOID)
		return transport.AppendUint(dst, s.TargetBunch)
	})
}

func readIntraSSPReq(r *transport.WireReader) *IntraSSPReq {
	return &IntraSSPReq{
		OID:      transport.ReadUint[addr.OID](r),
		Bunch:    transport.ReadUint[addr.BunchID](r),
		OldOwner: r.NodeID(),
		Replicate: transport.ReadSlice(r, 3, func(r *transport.WireReader) ReplicatedStub {
			return ReplicatedStub{
				SrcOID:      transport.ReadUint[addr.OID](r),
				TargetOID:   transport.ReadUint[addr.OID](r),
				TargetBunch: transport.ReadUint[addr.BunchID](r),
			}
		}),
	}
}

func appendPathEntry(dst []byte, e PathEntry) []byte {
	return transport.AppendUint(transport.AppendNodeID(dst, e.Node), e.Gen)
}

func readPathEntry(r *transport.WireReader) PathEntry {
	return PathEntry{Node: r.NodeID(), Gen: r.Uvarint()}
}

func appendInvalidateReq(dst []byte, q invalidateReq) []byte {
	return transport.AppendInt(transport.AppendUint(dst, q.O), q.Class)
}

func readInvalidateReq(r *transport.WireReader) invalidateReq {
	return invalidateReq{O: transport.ReadUint[addr.OID](r), Class: transport.ReadInt[transport.Class](r)}
}

func appendLocMsg(dst []byte, m LocMsg) []byte {
	dst = transport.AppendUint(dst, m.O)
	dst = transport.AppendNodeID(dst, m.From)
	return AppendManifests(dst, m.Manifests)
}

func readLocMsg(r *transport.WireReader) LocMsg {
	return LocMsg{O: transport.ReadUint[addr.OID](r), From: r.NodeID(), Manifests: ReadManifests(r)}
}
