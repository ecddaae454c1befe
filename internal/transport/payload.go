package transport

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sort"
)

// Payload codec registry. The `any` payload of a Msg (and of a call's
// reply) crosses a process boundary as one explicit tag followed by the
// encoding its type registered. Each protocol package registers the types
// it puts on the wire from an init function in its wire.go, with one
// append-style encoder and one decoder per type; this package never learns
// the types themselves. All processes of a cluster run the same binary, so
// both ends of a stream agree on the table by construction.
//
// Tags are grouped by owner so packages cannot collide by accident (a
// duplicate registration panics at init):
//
//	1–15    primitives (this file)
//	16–31   internal/dsm
//	32–47   internal/core
//	48–63   internal/ssp
//	64–79   internal/cluster
//	80–95   cmd/bmxd driver control
//
// A nil payload encodes to nothing at all; every other payload is the tag
// as a uvarint, then the type's body. Decoding rejects an unknown tag and
// any bytes left after the body.

// PayloadTag identifies one payload type on the wire.
type PayloadTag uint32

type payloadCodec struct {
	tag PayloadTag
	typ reflect.Type
	enc func([]byte, any) []byte
	dec func(*WireReader) any
}

// The tables are written only by init-time registration and read-only
// afterwards, so lookups take no lock.
var (
	payloadByTag  = map[PayloadTag]*payloadCodec{}
	payloadByType = map[reflect.Type]*payloadCodec{}
)

// RegisterPayload installs the codec for payload type T under tag. Call it
// from an init function of the package that owns T. The decoder reads
// through r and reports failure through r's sticky error; it must accept
// exactly what the encoder writes. Tag 0, a tag already taken, or a type
// already registered panics.
func RegisterPayload[T any](tag PayloadTag, enc func([]byte, T) []byte, dec func(*WireReader) T) {
	typ := reflect.TypeOf((*T)(nil)).Elem()
	if tag == 0 {
		panic(fmt.Sprintf("transport: payload %v registered with reserved tag 0", typ))
	}
	if prev := payloadByTag[tag]; prev != nil {
		panic(fmt.Sprintf("transport: payload tag %d registered for both %v and %v", tag, prev.typ, typ))
	}
	if prev := payloadByType[typ]; prev != nil {
		panic(fmt.Sprintf("transport: payload %v registered under tags %d and %d", typ, prev.tag, tag))
	}
	c := &payloadCodec{
		tag: tag,
		typ: typ,
		enc: func(dst []byte, v any) []byte { return enc(dst, v.(T)) },
		dec: func(r *WireReader) any { return dec(r) },
	}
	payloadByTag[tag] = c
	payloadByType[typ] = c
}

// AppendPayload appends the tagged encoding of v to dst. A nil v appends
// nothing; a type with no registered codec is an error.
func AppendPayload(dst []byte, v any) ([]byte, error) {
	if v == nil {
		return dst, nil
	}
	c := payloadByType[reflect.TypeOf(v)]
	if c == nil {
		return dst, fmt.Errorf("transport: no payload codec registered for %T", v)
	}
	return c.enc(binary.AppendUvarint(dst, uint64(c.tag)), v), nil
}

// DecodePayload decodes one whole tagged payload; empty input is a nil
// payload. Slices and maps that were empty when encoded decode as nil.
func DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, nil
	}
	r := NewWireReader(b)
	tag := ReadUint[PayloadTag](&r)
	if r.Err() != nil {
		return nil, fmt.Errorf("transport: payload tag: %w", r.Err())
	}
	c := payloadByTag[tag]
	if c == nil {
		return nil, fmt.Errorf("transport: unknown payload tag %d", tag)
	}
	v := c.dec(&r)
	if err := r.Finish(); err != nil {
		return nil, fmt.Errorf("transport: decode payload %v: %w", c.typ, err)
	}
	return v, nil
}

// PayloadType is one row of the registered tag table.
type PayloadType struct {
	Tag  PayloadTag
	Type reflect.Type
}

// PayloadTypes returns the registered tag table in tag order.
func PayloadTypes() []PayloadType {
	out := make([]PayloadType, 0, len(payloadByTag))
	for _, c := range payloadByTag {
		out = append(out, PayloadType{Tag: c.tag, Type: c.typ})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// Primitive payloads, used by control traffic and tests.
const (
	tagInt PayloadTag = iota + 1
	tagInt64
	tagUint64
	tagString
	tagBool
	tagBytes
	tagUint64s
	tagStrings
)

func init() {
	RegisterPayload(tagInt, AppendInt[int], ReadInt[int])
	RegisterPayload(tagInt64, AppendInt[int64], ReadInt[int64])
	RegisterPayload(tagUint64, AppendUint[uint64], ReadUint[uint64])
	RegisterPayload(tagString, AppendString, (*WireReader).Str)
	RegisterPayload(tagBool, AppendBool, (*WireReader).Bool)
	RegisterPayload(tagBytes, AppendBlob, readBytes)
	RegisterPayload(tagUint64s, appendUint64s, readUint64s)
	RegisterPayload(tagStrings, appendStrings, readStrings)
}

// readBytes copies a []byte payload out of the frame it arrived in, so the
// receiver may keep it.
func readBytes(r *WireReader) []byte {
	if b := r.Blob(); b != nil {
		return append([]byte(nil), b...)
	}
	return nil
}

func appendUint64s(dst []byte, s []uint64) []byte { return AppendSlice(dst, s, AppendUint[uint64]) }

func readUint64s(r *WireReader) []uint64 { return ReadSlice(r, 1, ReadUint[uint64]) }

func appendStrings(dst []byte, s []string) []byte { return AppendSlice(dst, s, AppendString) }

func readStrings(r *WireReader) []string { return ReadSlice(r, 1, (*WireReader).Str) }
