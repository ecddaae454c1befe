package ssp

import (
	"math"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/transport/wiretest"
)

// Both SSP payloads round-trip through their registered codecs, including
// nil against empty slices and extreme numbers.
func TestWirePayloadRoundTrip(t *testing.T) {
	for _, v := range []any{
		ScionMsg{},
		ScionMsg{Scion: InterScion{TargetOID: 1, TargetBunch: math.MaxUint32, SrcOID: math.MaxUint64,
			SrcBunch: 2, SrcNode: addr.NoNode, CreatedGen: 7}},
		TableMsg{},
		TableMsg{From: 2, Bunch: 1, Gen: math.MaxUint64,
			InterStubs: []InterStub{{SrcOID: 1, SrcBunch: 1, TargetOID: 2, TargetBunch: 2, ScionNode: 0}, {}},
			IntraStubs: []IntraStub{{OID: 4, Bunch: 1, OldOwner: 1}},
			Exiting:    []addr.OID{4, 5}, Derivative: []addr.OID{5}},
		TableMsg{InterStubs: []InterStub{}, IntraStubs: []IntraStub{}, Exiting: []addr.OID{}, Derivative: []addr.OID{}},
	} {
		wiretest.RoundTrip(t, v)
	}
}
