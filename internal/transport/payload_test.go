package transport_test

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"bmx/internal/addr"
	"bmx/internal/transport"
	"bmx/internal/transport/wiretest"
)

// Every primitive payload round-trips, including the values a varint
// codec is most likely to get wrong: the extremes, negatives, and empty
// versus nil (empty slices come back nil, as they did under gob).
func TestPrimitivePayloadRoundTrip(t *testing.T) {
	for _, v := range []any{
		nil,
		0, -1, 1, math.MinInt64, math.MaxInt64,
		int64(0), int64(math.MinInt64), int64(-300), int64(math.MaxInt64),
		uint64(0), uint64(127), uint64(128), uint64(math.MaxUint64),
		"", "hello", "héllo\x00wörld", strings.Repeat("x", 300),
		false, true,
		[]byte(nil), []byte{}, []byte{0, 1, 255},
		[]uint64(nil), []uint64{}, []uint64{0, 1, math.MaxUint64},
		[]string(nil), []string{}, []string{"", "a", "bc"},
	} {
		wiretest.RoundTrip(t, v)
	}
}

// Malformed input is an error, never a panic or a partial value.
func TestDecodePayloadRejects(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
	}{
		{"reserved tag", []byte{0}},
		{"unknown tag", []byte{95}},
		{"tag beyond uint32", []byte{0xff, 0xff, 0xff, 0xff, 0x10}},
		{"torn tag", []byte{0x80}},
		{"missing body", []byte{3}},
		{"trailing bytes", []byte{3, 5, 0}},
		{"bool byte not 0 or 1", []byte{5, 2}},
		{"string longer than input", []byte{4, 10, 'a'}},
		{"slice count beyond input", []byte{7, 0xff, 0xff, 0xff, 0xff, 0x0f, 1}},
		{"slice count overflow", []byte{7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}},
		{"int64 varint overflow", []byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}},
		{"overlong uvarint", []byte{3, 0x80, 0x00}},
		{"overlong zigzag varint", []byte{2, 0x81, 0x80, 0x00}},
		{"overlong tag", []byte{0x83, 0x00, 5}},
	} {
		if v, err := transport.DecodePayload(tc.b); err == nil {
			t.Errorf("%s: % x decoded to %#v", tc.name, tc.b, v)
		}
	}
}

func TestAppendPayloadUnregisteredType(t *testing.T) {
	type unregistered struct{ X int }
	if _, err := transport.AppendPayload(nil, unregistered{1}); err == nil {
		t.Fatal("a type with no codec encoded")
	}
}

// Fixed-width targets reject varints that do not fit them.
func TestWireReaderRange(t *testing.T) {
	b := transport.AppendUint(nil, uint64(1)<<32)
	r := transport.NewWireReader(b)
	if transport.ReadUint[uint32](&r); !errors.Is(r.Err(), transport.ErrWireRange) {
		t.Fatalf("uint32 from 1<<32: err = %v", r.Err())
	}
	b = transport.AppendInt(nil, int64(math.MinInt32)-1)
	r = transport.NewWireReader(b)
	if transport.ReadInt[int32](&r); !errors.Is(r.Err(), transport.ErrWireRange) {
		t.Fatalf("int32 from MinInt32-1: err = %v", r.Err())
	}
	b = transport.AppendNodeID(nil, addr.NoNode)
	r = transport.NewWireReader(b)
	if got := r.NodeID(); got != addr.NoNode || r.Finish() != nil {
		t.Fatalf("NoNode round trip: %v, %v", got, r.Err())
	}
}

// Map keys must arrive strictly ascending, as AppendMap writes them: a
// reordered or duplicated key would decode to a map whose encoding differs
// from the input.
func TestWireMapKeyOrder(t *testing.T) {
	read := func(b []byte) (map[uint64]bool, error) {
		r := transport.NewWireReader(b)
		m := transport.ReadMap(&r, 2, transport.ReadUint[uint64], (*transport.WireReader).Bool)
		return m, r.Finish()
	}
	in := map[uint64]bool{1: true, 5: false, 300: true}
	b := transport.AppendMap(nil, in, transport.AppendUint[uint64], transport.AppendBool)
	if got, err := read(b); err != nil || !reflect.DeepEqual(got, in) {
		t.Fatalf("ascending keys: %v, %v", got, err)
	}
	for name, b := range map[string][]byte{
		"descending": {2, 5, 0, 1, 1},
		"duplicate":  {2, 1, 1, 1, 0},
	} {
		if got, err := read(b); !errors.Is(err, transport.ErrWireRange) {
			t.Errorf("%s keys % x: got %v, err %v", name, b, got, err)
		}
	}
}

// Packed bools round-trip at every length around a byte boundary, and a
// set padding bit is rejected so each value has exactly one encoding.
func TestWireBools(t *testing.T) {
	for n := 0; n <= 17; n++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = i%3 != 1
		}
		b := transport.AppendBools(nil, in)
		r := transport.NewWireReader(b)
		got := r.Bools()
		if err := r.Finish(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if n == 0 && got != nil || len(got) != n {
			t.Fatalf("n=%d: got %v", n, got)
		}
		for i := range in {
			if got[i] != in[i] {
				t.Fatalf("n=%d: bit %d flipped", n, i)
			}
		}
		if n%8 != 0 {
			b[len(b)-1] |= 0x80
			r = transport.NewWireReader(b)
			if r.Bools(); r.Err() == nil {
				t.Fatalf("n=%d: padding bit accepted", n)
			}
		}
	}
	// Counts at the top of the uint64 range must fail cleanly, not wrap
	// the byte count to zero and index past the input.
	for d := range uint64(9) {
		b := transport.AppendUint(nil, uint64(math.MaxUint64)-d)
		r := transport.NewWireReader(append(b, 0xff))
		if got := r.Bools(); r.Err() == nil {
			t.Fatalf("count MaxUint64-%d decoded %d bools", d, len(got))
		}
	}
}

func TestRegisterPayloadPanics(t *testing.T) {
	type fresh struct{}
	enc := func(dst []byte, _ fresh) []byte { return dst }
	dec := func(*transport.WireReader) fresh { return fresh{} }
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		f()
	}
	mustPanic("tag 0", func() { transport.RegisterPayload(0, enc, dec) })
	mustPanic("a taken tag", func() { transport.RegisterPayload(1, enc, dec) })
	mustPanic("a registered type", func() {
		transport.RegisterPayload(1000, transport.AppendInt[int], transport.ReadInt[int])
	})
}
