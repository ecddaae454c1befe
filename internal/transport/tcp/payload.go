package tcp

import "bmx/internal/transport"

// Payload codec: the `any` payload of a transport.Msg (and of a call
// reply) crosses the wire as a tagged binary value nested inside the frame
// — a uvarint type tag, then the body the type's owning package encodes
// with its registered append-style encoder (transport.RegisterPayload).
// No value is walked by reflection and no type description rides along:
// the tag table is fixed at init and identical in every process of a
// cluster, which all run the same binary.
//
// The blob is decoded only after the frame decoder has bounds-checked it
// against the received body, and every payload decoder checks each length
// against the bytes that remain before allocating, so neither layer sees a
// length the wire did not actually deliver.

// encodePayload renders v as a tagged blob; nil stays empty.
func encodePayload(v any) ([]byte, error) { return transport.AppendPayload(nil, v) }

// decodePayload reverses encodePayload; an empty blob is a nil payload.
func decodePayload(b []byte) (any, error) { return transport.DecodePayload(b) }
