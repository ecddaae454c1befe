package transport

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"bmx/internal/addr"
)

// Wire primitives shared by every binary codec that crosses a process
// boundary: the TCP frame layer and the payload encoders each protocol
// package registers (payload.go). Writers are append-style functions that
// grow a caller-owned buffer; readers go through WireReader, a
// bounds-checked cursor with a sticky error.
//
// The encoding is deliberately small: unsigned integers are uvarints,
// signed ones zigzag varints, NodeIDs the uvarint of their uint32 bit
// pattern, booleans one byte (0 or 1), strings and blobs a uvarint length
// plus raw bytes, slices a uvarint count plus the elements, bool slices a
// count plus packed bits, maps a count plus the pairs in ascending key
// order. Every value has exactly one encoding, and the reader enforces it:
// it rejects overlong varints, set padding bits and map keys that are not
// strictly ascending, so whatever decodes re-encodes to the bytes it was
// decoded from.

var (
	// ErrWireTruncated reports input that ends inside a value.
	ErrWireTruncated = errors.New("transport: wire data truncated")
	// ErrWireTrailing reports bytes left over after a complete value.
	ErrWireTrailing = errors.New("transport: trailing bytes after wire value")
	// ErrWireRange reports a well-formed number outside its field's range.
	ErrWireRange = errors.New("transport: wire value out of range")
)

// WireReader is a bounds-checked cursor over one encoded value. The first
// failure sticks: later reads return zero values and consume nothing, so a
// decoder reads every field unconditionally and checks Err (or Finish)
// once at the end. A count is checked against the bytes that remain before
// anything is allocated for it, so hostile input cannot make a decoder
// allocate more than the input justifies.
type WireReader struct {
	b   []byte
	i   int
	err error
}

// NewWireReader returns a reader over b. Blob and Str results alias b.
func NewWireReader(b []byte) WireReader { return WireReader{b: b} }

// Err returns the first decode failure, if any.
func (r *WireReader) Err() error { return r.err }

// Rem returns the number of unread bytes.
func (r *WireReader) Rem() int { return len(r.b) - r.i }

// fail records err unless an earlier failure already stuck.
func (r *WireReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Finish returns the sticky error, or ErrWireTrailing if bytes remain.
func (r *WireReader) Finish() error {
	if r.err == nil && r.Rem() != 0 {
		r.err = ErrWireTrailing
	}
	return r.err
}

// Byte reads one raw byte.
func (r *WireReader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.i >= len(r.b) {
		r.fail(ErrWireTruncated)
		return 0
	}
	c := r.b[r.i]
	r.i++
	return c
}

// Uvarint reads an unsigned varint.
func (r *WireReader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.i:])
	if !r.advanceVarint(n) {
		return 0
	}
	return v
}

// varint reads a zigzag signed varint.
func (r *WireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.i:])
	if !r.advanceVarint(n) {
		return 0
	}
	return v
}

// advanceVarint consumes a varint of n bytes as reported by the binary
// package (n <= 0 means torn or overflowing). A varint longer than one byte
// whose last byte is zero is overlong: the minimal encoding of the same
// number is shorter, so it is rejected.
func (r *WireReader) advanceVarint(n int) bool {
	if n <= 0 {
		r.fail(ErrWireTruncated)
		return false
	}
	if n > 1 && r.b[r.i+n-1] == 0 {
		r.fail(fmt.Errorf("%w: overlong varint", ErrWireRange))
		return false
	}
	r.i += n
	return true
}

// Bool reads one byte that must be 0 or 1.
func (r *WireReader) Bool() bool {
	switch r.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	r.fail(fmt.Errorf("%w: bool byte", ErrWireRange))
	return false
}

// NodeID reads a node identity (the uvarint of its uint32 bit pattern).
func (r *WireReader) NodeID() addr.NodeID { return addr.NodeID(int32(ReadUint[uint32](r))) }

// count reads a uvarint element count and checks that count elements of
// at least minBytes bytes each fit in the bytes that remain.
func (r *WireReader) count(minBytes int) int {
	n := r.Uvarint()
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Rem()/max(minBytes, 1)) {
		r.fail(ErrWireTruncated)
		return 0
	}
	return int(n)
}

// Blob reads a uvarint length and that many raw bytes, aliasing the
// input. An empty blob is nil.
func (r *WireReader) Blob() []byte {
	n := r.count(1)
	if n == 0 {
		return nil
	}
	b := r.b[r.i : r.i+n : r.i+n]
	r.i += n
	return b
}

// Str reads a length-prefixed string.
func (r *WireReader) Str() string { return string(r.Blob()) }

// Bools reads a count and the packed bits; an empty slice is nil. Padding
// bits in the last byte must be zero.
func (r *WireReader) Bools() []bool {
	n := r.Uvarint()
	if r.err != nil || n == 0 {
		return nil
	}
	// The byte count is n/8 rounded up, computed without n+7, which would
	// wrap for counts near the top of the uint64 range.
	nb := n / 8
	if n%8 != 0 {
		nb++
	}
	if nb > uint64(r.Rem()) {
		r.fail(ErrWireTruncated)
		return nil
	}
	bits := r.b[r.i : r.i+int(nb)]
	r.i += len(bits)
	if n%8 != 0 && bits[len(bits)-1]>>(n%8) != 0 {
		r.fail(fmt.Errorf("%w: bool padding bits", ErrWireRange))
		return nil
	}
	out := make([]bool, n)
	for i := range out {
		out[i] = bits[i/8]&(1<<(i%8)) != 0
	}
	return out
}

// ReadUint reads a uvarint into an unsigned integer type, failing if the
// value does not fit.
func ReadUint[T ~uint32 | ~uint64](r *WireReader) T {
	v := r.Uvarint()
	if v > uint64(^T(0)) {
		r.fail(fmt.Errorf("%w: %d", ErrWireRange, v))
		return 0
	}
	return T(v)
}

// ReadInt reads a zigzag varint into a signed integer type, failing if the
// value does not fit.
func ReadInt[T ~int | ~int32 | ~int64](r *WireReader) T {
	v := r.varint()
	if int64(T(v)) != v {
		r.fail(fmt.Errorf("%w: %d", ErrWireRange, v))
		return 0
	}
	return T(v)
}

// ReadSlice reads a count and that many elements; minBytes is the fewest
// bytes one element can encode to. An empty slice is nil.
func ReadSlice[T any](r *WireReader, minBytes int, read func(*WireReader) T) []T {
	n := r.count(minBytes)
	if n == 0 {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = read(r)
	}
	return out
}

// ReadMap reads a count and that many key/value pairs; minBytes is the
// fewest bytes one pair can encode to. Keys must be strictly ascending, as
// AppendMap writes them. An empty map is nil.
func ReadMap[K cmp.Ordered, V any](r *WireReader, minBytes int, key func(*WireReader) K, val func(*WireReader) V) map[K]V {
	n := r.count(minBytes)
	if n == 0 {
		return nil
	}
	m := make(map[K]V, n)
	var prev K
	for i := range n {
		k := key(r)
		if i > 0 && k <= prev {
			r.fail(fmt.Errorf("%w: map keys out of order", ErrWireRange))
		}
		if r.err != nil {
			return nil
		}
		m[k] = val(r)
		prev = k
	}
	return m
}

// AppendUint appends an unsigned integer as a uvarint.
func AppendUint[T ~uint32 | ~uint64](dst []byte, v T) []byte {
	return binary.AppendUvarint(dst, uint64(v))
}

// AppendInt appends a signed integer as a zigzag varint.
func AppendInt[T ~int | ~int32 | ~int64](dst []byte, v T) []byte {
	return binary.AppendVarint(dst, int64(v))
}

// AppendBool appends one byte, 1 for true.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendNodeID appends a node identity as the uvarint of its uint32 bit
// pattern.
func AppendNodeID(dst []byte, n addr.NodeID) []byte {
	return binary.AppendUvarint(dst, uint64(uint32(n)))
}

// AppendBlob appends a uvarint length and the raw bytes.
func AppendBlob(dst, b []byte) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(b))), b...)
}

// AppendString appends a uvarint length and the string's bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBools appends a count and the values packed eight to a byte,
// least significant bit first.
func AppendBools(dst []byte, bs []bool) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(bs)))
	var c byte
	for i, b := range bs {
		if b {
			c |= 1 << (i % 8)
		}
		if i%8 == 7 {
			dst = append(dst, c)
			c = 0
		}
	}
	if len(bs)%8 != 0 {
		dst = append(dst, c)
	}
	return dst
}

// AppendSlice appends a count and each element.
func AppendSlice[T any](dst []byte, s []T, write func([]byte, T) []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	for _, v := range s {
		dst = write(dst, v)
	}
	return dst
}

// AppendMap appends a count and the pairs in ascending key order, so equal
// maps encode to equal bytes.
func AppendMap[K cmp.Ordered, V any](dst []byte, m map[K]V, key func([]byte, K) []byte, val func([]byte, V) []byte) []byte {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = val(key(dst, k), m[k])
	}
	return dst
}
