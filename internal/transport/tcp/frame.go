// Package tcp is the real-socket implementation of transport.Network: one
// persistent TCP stream per process pair carrying length-prefixed frames.
//
// The wire unit is a frame: a 4-byte big-endian length followed by a
// binary body (type tag, Lamport tick, then type-specific fields) written
// and read with the shared wire primitives of package transport. Protocol
// payloads — the `any` in transport.Msg — ride inside the frame as a
// length-prefixed blob: a payload type tag plus the body that type's
// registered codec writes (see payload.go). Neither layer walks values by
// reflection, and both are fuzzed byte by byte (FuzzDecodeFrame here,
// FuzzDecodePayload in cmd/bmxd): every length is bounds-checked against
// the bytes actually present, so torn, truncated or hostile input errors
// cleanly without panicking or allocating beyond the data on hand.
//
// Frame kinds:
//
//   - hello: sent by both ends immediately after connect, and again
//     whenever a new local node registers. Announces the sender's canonical
//     listen address (its cluster-wide identity) and its local NodeIDs.
//   - msg: one asynchronous transport.Msg. TCP's in-order delivery plus the
//     one-stream-per-pair rule gives the per-pair FIFO the scion cleaner
//     requires (§6.1); the sender-assigned Seq makes gaps visible as gaps.
//   - call: a synchronous request, tagged with a request ID.
//   - reply: the response to a call, carrying the request ID, an optional
//     error (sentinel name + detail, see transport.RegisterWireError), and
//     the reply payload.
package tcp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"bmx/internal/addr"
	"bmx/internal/transport"
)

// MaxFrameBytes bounds a single frame body. Larger announced lengths are
// rejected before any body byte is read.
const MaxFrameBytes = 16 << 20

// frameHeadroom covers a typical msg, call or reply frame's bytes besides
// its kind, payload and error text (length prefix, varint header fields,
// span tail). Frame buffers are sized with it, so appending the payload
// rarely reallocates.
const frameHeadroom = 64

// frameType tags the wire meaning of a frame body.
type frameType uint8

const (
	frameHello frameType = 1
	frameMsg   frameType = 2
	frameCall  frameType = 3
	frameReply frameType = 4
)

// frame is the decoded form of one wire frame. Only the fields of the
// active Type are meaningful.
type frame struct {
	Type frameType
	Tick uint64 // sender's Lamport tick at encode time

	// hello
	ListenAddr string
	Nodes      []addr.NodeID

	// msg & call
	From, To  addr.NodeID
	Kind      string
	Class     transport.Class
	Seq       uint64 // msg only
	ReqID     uint64 // call & reply
	Bytes     int
	Piggyback int
	Payload   []byte // tagged payload blob (see payload.go)

	// reply
	ReplyBytes int
	HasErr     bool
	ErrName    string // registered sentinel name, "" if none matched
	ErrDetail  string

	// msg & call: optional causal span context (obs/span.go), encoded as a
	// trailing field only when non-zero — a zero span's frame is
	// byte-identical to the pre-span wire format, so tracing-off runs are
	// pinned unchanged.
	Trace, Span, SParent uint64
}

var (
	errFrameTooBig = errors.New("tcp: frame exceeds MaxFrameBytes")
	errFrameEmpty  = errors.New("tcp: empty frame")
	errFrameType   = errors.New("tcp: unknown frame type")
	errFrameClass  = errors.New("tcp: unknown traffic class")
)

// appendFrame appends the length-prefixed wire encoding of f to dst.
func appendFrame(dst []byte, f *frame) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length prefix backfilled below
	dst = append(dst, byte(f.Type))
	dst = binary.AppendUvarint(dst, f.Tick)
	switch f.Type {
	case frameHello:
		dst = transport.AppendString(dst, f.ListenAddr)
		dst = transport.AppendSlice(dst, f.Nodes, transport.AppendNodeID)
	case frameMsg, frameCall:
		dst = transport.AppendNodeID(dst, f.From)
		dst = transport.AppendNodeID(dst, f.To)
		dst = transport.AppendString(dst, f.Kind)
		dst = append(dst, byte(f.Class))
		if f.Type == frameMsg {
			dst = binary.AppendUvarint(dst, f.Seq)
		} else {
			dst = binary.AppendUvarint(dst, f.ReqID)
		}
		dst = binary.AppendUvarint(dst, uint64(max(f.Bytes, 0)))
		dst = binary.AppendUvarint(dst, uint64(max(f.Piggyback, 0)))
		dst = transport.AppendBlob(dst, f.Payload)
		// Optional trailing span field: present iff any component is
		// non-zero, keeping span-free frames byte-identical to the
		// pre-span encoding.
		if f.Trace != 0 || f.Span != 0 || f.SParent != 0 {
			dst = binary.AppendUvarint(dst, f.Trace)
			dst = binary.AppendUvarint(dst, f.Span)
			dst = binary.AppendUvarint(dst, f.SParent)
		}
	case frameReply:
		dst = binary.AppendUvarint(dst, f.ReqID)
		dst = binary.AppendUvarint(dst, uint64(max(f.ReplyBytes, 0)))
		dst = transport.AppendBool(dst, f.HasErr)
		if f.HasErr {
			dst = transport.AppendString(dst, f.ErrName)
			dst = transport.AppendString(dst, f.ErrDetail)
		}
		dst = transport.AppendBlob(dst, f.Payload)
	default:
		return dst[:start], fmt.Errorf("%w: %d", errFrameType, f.Type)
	}
	body := len(dst) - start - 4
	if body > MaxFrameBytes {
		return dst[:start], fmt.Errorf("%w: %d bytes", errFrameTooBig, body)
	}
	binary.BigEndian.PutUint32(dst[start:], uint32(body))
	return dst, nil
}

// decodeFrame decodes one frame body (the bytes after the length prefix).
// It is total: any input either yields a frame or a descriptive error, with
// every internal length validated against the bytes remaining, so hostile
// input cannot provoke a panic or an allocation beyond len(body).
func decodeFrame(body []byte) (frame, error) {
	var f frame
	if len(body) == 0 {
		return f, errFrameEmpty
	}
	r := transport.NewWireReader(body)
	f.Type = frameType(r.Byte())
	f.Tick = r.Uvarint()
	switch f.Type {
	case frameHello:
		f.ListenAddr = r.Str()
		f.Nodes = transport.ReadSlice(&r, 1, (*transport.WireReader).NodeID)
	case frameMsg, frameCall:
		f.From = r.NodeID()
		f.To = r.NodeID()
		f.Kind = r.Str()
		// Only app and gc traffic exist: a frame under any other class
		// would escape the per-class message counts and the §5 probes.
		if f.Class = transport.Class(r.Byte()); f.Class != transport.ClassApp && f.Class != transport.ClassGC {
			return f, fmt.Errorf("%w: %d", errFrameClass, f.Class)
		}
		if seq := r.Uvarint(); f.Type == frameMsg {
			f.Seq = seq
		} else {
			f.ReqID = seq
		}
		f.Bytes = clampInt(r.Uvarint())
		f.Piggyback = clampInt(r.Uvarint())
		f.Payload = r.Blob()
		// Optional trailing span field: bytes remaining after the payload
		// must be exactly the three span uvarints (a torn span errors as
		// truncated, anything extra as trailing).
		if r.Rem() > 0 {
			f.Trace = r.Uvarint()
			f.Span = r.Uvarint()
			f.SParent = r.Uvarint()
		}
	case frameReply:
		f.ReqID = r.Uvarint()
		f.ReplyBytes = clampInt(r.Uvarint())
		if f.HasErr = r.Bool(); f.HasErr {
			f.ErrName = r.Str()
			f.ErrDetail = r.Str()
		}
		f.Payload = r.Blob()
	default:
		return f, fmt.Errorf("%w: %d", errFrameType, f.Type)
	}
	if err := r.Finish(); err != nil {
		return f, fmt.Errorf("tcp: frame %d: %w", f.Type, err)
	}
	return f, nil
}

// readFrame reads one length-prefixed frame from r. The length prefix is
// validated before the body is read; the body buffer is bounded by
// MaxFrameBytes and by the announced length.
func readFrame(r io.Reader) (frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return frame{}, errFrameEmpty
	}
	if n > MaxFrameBytes {
		return frame{}, fmt.Errorf("%w: announced %d bytes", errFrameTooBig, n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return frame{}, fmt.Errorf("tcp: frame body: %w", err)
	}
	return decodeFrame(body)
}

// clampInt converts a wire-read uvarint to a non-negative int without
// overflow on 32-bit builds.
func clampInt(v uint64) int {
	if v > uint64(int(^uint(0)>>1)) {
		return int(^uint(0) >> 1)
	}
	return int(v)
}
