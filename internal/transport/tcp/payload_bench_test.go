package tcp

import (
	"testing"

	"bmx/internal/addr"
	"bmx/internal/core"
	"bmx/internal/dsm"
	"bmx/internal/ssp"
)

// BenchmarkPayloadCodec times one encodePayload plus one decodePayload of
// a representative value of each major payload type reachable from this
// package, and reports the encoded size as wire-B. It uses only the
// codec's two entry points, so it measures whichever codec the package
// carries.
func BenchmarkPayloadCodec(b *testing.B) {
	man := func(i int) dsm.Manifest {
		return dsm.Manifest{OID: addr.OID(100 + i), Addr: addr.Addr(0x10000 + 64*i), Size: 4, Bunch: 1, Epoch: 3}
	}
	mans := func(n int) []dsm.Manifest {
		out := make([]dsm.Manifest, n)
		for i := range out {
			out[i] = man(i)
		}
		return out
	}
	oids := func(n int) []addr.OID {
		out := make([]addr.OID, n)
		for i := range out {
			out[i] = addr.OID(100 + i)
		}
		return out
	}
	segs := make([]addr.SegID, 16)
	for i := range segs {
		segs[i] = addr.SegID(40 + i)
	}
	inter := make([]ssp.InterStub, 8)
	for i := range inter {
		inter[i] = ssp.InterStub{SrcOID: addr.OID(100 + i), SrcBunch: 1, TargetOID: addr.OID(200 + i), TargetBunch: 2, ScionNode: 2}
	}
	for _, c := range []struct {
		name string
		v    any
	}{
		{"ping", []uint64{0x100, 0x101, 0x102, 0x103}},
		{"ping-reply", uint64(0x406)},
		{"LocMsg", dsm.LocMsg{O: 100, From: 1, Manifests: mans(2)}},
		{"LocFlushMsg", core.LocFlushMsg{From: 1, Manifests: mans(16)}},
		{"CopyOutReply", core.CopyOutReply{Manifests: mans(8), NotOwned: map[addr.OID]addr.NodeID{300: 0, 301: 2}}},
		{"AddrChangeMsg", core.AddrChangeMsg{From: 1, Bunch: 1, Segs: segs, Manifests: mans(16)}},
		{"ScionMsg", ssp.ScionMsg{Scion: ssp.InterScion{TargetOID: 200, TargetBunch: 2, SrcOID: 100, SrcBunch: 1, SrcNode: 1, CreatedGen: 5}}},
		{"TableMsg", ssp.TableMsg{From: 1, Bunch: 1, Gen: 9, InterStubs: inter,
			IntraStubs: []ssp.IntraStub{{OID: 120, Bunch: 1, OldOwner: 0}}, Exiting: oids(16), Derivative: oids(2)}},
	} {
		b.Run(c.name, func(b *testing.B) {
			blob, err := encodePayload(c.v)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				blob, err = encodePayload(c.v)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := decodePayload(blob); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(blob)), "wire-B")
		})
	}
}
