package wire

import (
	"fmt"

	"repro/internal/jms"
)

// This file implements the mesh forwarding path: the FORWARD frame codec
// and the Forwarder ingress hook the replication layer (internal/cluster)
// plugs into the wire server. A FORWARD frame wraps the original publish
// bytes verbatim behind a six-byte routing header, so replicating a
// message to a peer costs one header append and no re-encode; the peer
// publishes it locally and never re-forwards (structural loop
// suppression — the mesh graph is a single-hop star per publish, so no
// TTL bookkeeping is needed on the hot path).

// forwardBatchFlag marks the inner payload as a BATCH body (message count
// + length-prefixed messages) rather than a single message encoding.
const forwardBatchFlag = 1 << 0

// forwardHeaderSize is the fixed routing header: origin u32, hops u8,
// flags u8.
const forwardHeaderSize = 6

// MaxForwardHops bounds the hop counter a decoder accepts. The mesh only
// ever emits hops=1 today (forwards are never re-forwarded), but the
// header reserves room for relayed topologies; anything past this is a
// corrupt or hostile frame.
const MaxForwardHops = 8

// ForwardHeader is the routing header of a FORWARD frame.
type ForwardHeader struct {
	// Origin is the mesh index of the member the publish entered at.
	Origin uint32
	// Hops counts forwarding legs; the emitting side sets 1.
	Hops uint8
	// Batch marks the inner payload as a BATCH body.
	Batch bool
}

// AppendForward appends a FORWARD payload body (routing header + inner
// bytes verbatim) to buf and returns the extended slice. The caller
// prepends the request ID; inner is the original PUBLISH or BATCH payload
// after its own request ID.
func AppendForward(buf []byte, h ForwardHeader, inner []byte) []byte {
	e := encoder{buf: buf}
	e.u32(h.Origin)
	e.u8(h.Hops)
	var flags uint8
	if h.Batch {
		flags |= forwardBatchFlag
	}
	e.u8(flags)
	e.buf = append(e.buf, inner...)
	return e.buf
}

// DecodeForward parses a FORWARD payload body (after the request ID) into
// its routing header and the inner publish bytes. The inner slice views
// the input; it is only valid as long as payload is.
func DecodeForward(payload []byte) (ForwardHeader, []byte, error) {
	d := decoder{buf: payload}
	var h ForwardHeader
	origin, err := d.u32()
	if err != nil {
		return ForwardHeader{}, nil, err
	}
	h.Origin = origin
	hops, err := d.u8()
	if err != nil {
		return ForwardHeader{}, nil, err
	}
	if hops == 0 || hops > MaxForwardHops {
		return ForwardHeader{}, nil, fmt.Errorf("wire: forward hop count %d out of range [1,%d]", hops, MaxForwardHops)
	}
	h.Hops = hops
	flags, err := d.u8()
	if err != nil {
		return ForwardHeader{}, nil, err
	}
	if flags&^forwardBatchFlag != 0 {
		return ForwardHeader{}, nil, fmt.Errorf("wire: unknown forward flags %#x", flags)
	}
	h.Batch = flags&forwardBatchFlag != 0
	inner := payload[d.off:]
	if len(inner) == 0 {
		return ForwardHeader{}, nil, fmt.Errorf("%w: forward carries no message", ErrTruncated)
	}
	return h, inner, nil
}

// Forwarder replicates client publishes to mesh peers. The wire server
// consults it at PUBLISH/BATCH ingress — after decoding and dedupe, before
// the local broker publish — with the publish's fresh messages and the raw
// payload bytes (after the request ID), so a forwarding implementation can
// re-encapsulate without re-encoding. Every publish is one carrier unit, so
// a PUBLISH reaches it as a batch of one: batch says which encoding raw is,
// a single message body or a BATCH body (count + length-prefixed
// messages). raw may still carry members the server dropped as
// duplicates; peers drop them with their own dedupe tables.
//
// Forwarding is asynchronous. A Start call queues whatever FORWARD frames
// the publish needs (PeerLink.Forward does, and copies raw — it views the
// connection's read window and is only valid for the duration of the call)
// and returns without waiting for any peer. The connection's read loop goes
// straight on to the next frame; the publish is parked, in arrival order,
// until the returned ForwardAck completes, and only then published locally
// and acknowledged. Any failed forward rejects the publish: the client sees
// an ERROR frame and nothing is published locally. So a PUB_ACK still
// means every required peer accepted the message and the local broker
// admitted it, and per-publisher order holds on every member: forwards
// leave in read order on one connection per peer, local publishes happen
// in read order.
//
// The returned local flag selects whether the messages are also published
// on this broker (false for the hash topology's non-owner entry broker).
// A nil ForwardAck means nothing was sent for this publish (PSR, a
// self-owned hash topic); with nothing parked ahead of it, such a publish
// is handled inline exactly as on a server without a Forwarder.
//
// FORWARD frames themselves never reach the Forwarder: a forwarded
// publish is applied locally only, which suppresses forwarding loops
// structurally.
type Forwarder interface {
	Start(msgs []*jms.Message, batch bool, raw []byte) (local bool, ack *ForwardAck)
}
