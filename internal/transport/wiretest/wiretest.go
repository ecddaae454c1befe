// Package wiretest checks payload codecs registered with
// transport.RegisterPayload. Tests of the packages that own payload types
// import it; no program code does.
package wiretest

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bmx/internal/transport"
)

// RoundTrip encodes v, decodes the bytes and requires the result to
// deep-equal Canonical(v). It also requires the encoding to be canonical
// (re-encoding the decoded value yields the same bytes), every strict
// prefix of it to fail to decode, and one trailing byte to be rejected.
func RoundTrip(t testing.TB, v any) {
	t.Helper()
	b, err := transport.AppendPayload(nil, v)
	if err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	got, err := transport.DecodePayload(b)
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	if want := Canonical(v); !reflect.DeepEqual(got, want) {
		t.Fatalf("%T round trip diverged:\n sent %#v\n  got %#v", v, want, got)
	}
	re, err := transport.AppendPayload(nil, got)
	if err != nil || !bytes.Equal(re, b) {
		t.Fatalf("%T re-encoding is not canonical (%v):\n first % x\nsecond % x", v, err, b, re)
	}
	for cut := 1; cut < len(b); cut++ {
		if _, err := transport.DecodePayload(b[:cut]); err == nil {
			t.Fatalf("%T: prefix %d/%d of the encoding decoded", v, cut, len(b))
		}
	}
	if _, err := transport.DecodePayload(append(b, 0)); err == nil {
		t.Fatalf("%T: trailing byte accepted", v)
	}
}

// Random returns a pseudo-random value of typ with every field, element
// and map entry filled in, so that a codec that forgets a field fails a
// round trip.
func Random(typ reflect.Type, rng *rand.Rand) any {
	v, ok := quick.Value(typ, rng)
	if !ok {
		panic("wiretest: cannot generate a " + typ.String())
	}
	return v.Interface()
}

// Canonical returns a deep copy of v with every empty slice or map
// replaced by nil: the form in which the payload codec hands values back.
func Canonical(v any) any {
	if v == nil {
		return nil
	}
	return canonical(reflect.ValueOf(v)).Interface()
}

func canonical(v reflect.Value) reflect.Value {
	out := reflect.New(v.Type()).Elem()
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			return out
		}
		out.Set(reflect.MakeSlice(v.Type(), v.Len(), v.Len()))
		for i := 0; i < v.Len(); i++ {
			out.Index(i).Set(canonical(v.Index(i)))
		}
	case reflect.Map:
		if v.Len() == 0 {
			return out
		}
		out.Set(reflect.MakeMapWithSize(v.Type(), v.Len()))
		for it := v.MapRange(); it.Next(); {
			out.SetMapIndex(it.Key(), canonical(it.Value()))
		}
	case reflect.Pointer:
		if !v.IsNil() {
			out.Set(reflect.New(v.Type().Elem()))
			out.Elem().Set(canonical(v.Elem()))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			out.Field(i).Set(canonical(v.Field(i)))
		}
	default:
		out.Set(v)
	}
	return out
}
