// Package wire implements the broker's TCP wire protocol: length-prefixed
// binary frames carrying publishes, subscriptions, deliveries and the credit
// grants that implement publisher push-back over the network.
//
// Frame layout:
//
//	uint32  big-endian payload length (excluding the 5-byte prologue)
//	uint8   frame type
//	[]byte  payload
//
// The payload encoding uses big-endian fixed-width integers and
// length-prefixed strings/bytes (see codec.go).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// FrameType identifies the purpose of a frame.
type FrameType uint8

// Frame types.
const (
	// FramePublish carries a message from publisher to broker.
	FramePublish FrameType = iota + 1
	// FramePubAck acknowledges a publish (push-back window release).
	FramePubAck
	// FrameSubscribe installs a subscription (topic + filter spec).
	FrameSubscribe
	// FrameSubscribeOK returns the subscription ID.
	FrameSubscribeOK
	// FrameUnsubscribe removes a subscription.
	FrameUnsubscribe
	// FrameUnsubscribeOK confirms removal.
	FrameUnsubscribeOK
	// FrameMessage delivers a message replica to a subscriber.
	FrameMessage
	// FrameError reports a request failure.
	FrameError
	// FramePing and FramePong are liveness probes.
	FramePing
	// FramePong answers a ping, echoing its request ID if it had one.
	FramePong
	// FrameConfigureTopic creates a topic on the broker.
	FrameConfigureTopic
	// FrameConfigureTopicOK confirms topic creation.
	FrameConfigureTopicOK
	// FrameDeleteDurable deletes a named durable subscription.
	FrameDeleteDurable
	// FrameDeleteDurableOK confirms the deletion.
	FrameDeleteDurableOK
	// FrameMsgAck acknowledges one delivery of an acked subscription
	// (subscription id + delivery sequence). Fire-and-forget: it carries
	// no request ID and has no reply.
	FrameMsgAck
	// FrameBatch carries several publishes coalesced into one frame:
	// a message count followed by length-prefixed message encodings (see
	// batch.go). The broker answers the whole batch with a single PUB_ACK,
	// so one push-back round trip amortizes over every message in it.
	FrameBatch
	// FrameSubClosed notifies a subscriber that the broker ended its
	// subscription server-side (payload: subscription id u64, reason str).
	// Unsolicited — it carries no request ID and has no reply. Sent today
	// when a slow-consumer disconnect policy kicks the subscription.
	FrameSubClosed
	// FrameForward carries a publish replicated between mesh peers. The
	// payload is a request ID (u64, like every request frame) and a fixed
	// routing header (origin member u32, hop count u8, flags u8) followed
	// verbatim by the original message or batch body (flag bit 0
	// distinguishes them), so forwarding never re-encodes the message
	// bytes. A broker publishes a FORWARD locally but never re-forwards
	// it — structural loop suppression, no hop accounting on the hot
	// path. Like PUBLISH it is answered with PUB_ACK.
	FrameForward
	// FrameFanout delivers one message to several subscriptions of one
	// connection: a u32 count, count (subscription id u64, delivery
	// sequence u64) pairs, then the encoded message. The server sends it
	// in place of one MESSAGE frame per subscription whenever a message
	// matches more than one subscription of the connection.
	FrameFanout
)

// String names the frame type.
func (t FrameType) String() string {
	switch t {
	case FramePublish:
		return "PUBLISH"
	case FramePubAck:
		return "PUB_ACK"
	case FrameSubscribe:
		return "SUBSCRIBE"
	case FrameSubscribeOK:
		return "SUBSCRIBE_OK"
	case FrameUnsubscribe:
		return "UNSUBSCRIBE"
	case FrameUnsubscribeOK:
		return "UNSUBSCRIBE_OK"
	case FrameMessage:
		return "MESSAGE"
	case FrameError:
		return "ERROR"
	case FramePing:
		return "PING"
	case FramePong:
		return "PONG"
	case FrameConfigureTopic:
		return "CONFIGURE_TOPIC"
	case FrameConfigureTopicOK:
		return "CONFIGURE_TOPIC_OK"
	case FrameDeleteDurable:
		return "DELETE_DURABLE"
	case FrameDeleteDurableOK:
		return "DELETE_DURABLE_OK"
	case FrameMsgAck:
		return "MSG_ACK"
	case FrameBatch:
		return "MSG_BATCH"
	case FrameSubClosed:
		return "SUB_CLOSED"
	case FrameForward:
		return "FORWARD"
	case FrameFanout:
		return "MESSAGE_FANOUT"
	default:
		return "FrameType(" + strconv.Itoa(int(t)) + ")"
	}
}

// MaxFrameSize bounds a frame payload to guard against corrupt peers.
const MaxFrameSize = 16 << 20

// Errors of the framing layer.
var (
	// ErrFrameTooLarge is returned for frames exceeding MaxFrameSize.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
	// ErrTruncated is returned when a payload is shorter than its fields.
	ErrTruncated = errors.New("wire: truncated payload")
)

// Frame is a decoded protocol frame.
type Frame struct {
	Type    FrameType
	Payload []byte
}

// WriteFrame writes one frame to w with a single Write call: prologue and
// payload are coalesced into one pooled buffer (small frames) or a vectored
// net.Buffers write (frames too large to pool), so the plain per-frame path
// costs one syscall per frame, not two. The client's requests go through
// Request instead, which encodes the payload behind its prologue in the
// first place rather than copying it there.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(f.Payload)))
	hdr[4] = byte(f.Type)
	if len(f.Payload) == 0 {
		if _, err := w.Write(hdr[:]); err != nil {
			return fmt.Errorf("wire: write header: %w", err)
		}
		return nil
	}
	if len(f.Payload) > maxPooledBuffer {
		// Too big to stage through the pool: vectored write. On *net.TCPConn
		// this is one writev syscall; other writers degrade to two Writes.
		bufs := net.Buffers{hdr[:], f.Payload}
		if _, err := bufs.WriteTo(w); err != nil {
			return fmt.Errorf("wire: write frame: %w", err)
		}
		return nil
	}
	bp := GetBuffer()
	buf := append(append((*bp)[:0], hdr[:]...), f.Payload...)
	_, err := w.Write(buf)
	*bp = buf
	PutBuffer(bp)
	if err != nil {
		return fmt.Errorf("wire: write frame: %w", err)
	}
	return nil
}

// ReadFrame reads one frame from r.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Frame{}, err
	}
	size := binary.BigEndian.Uint32(hdr[:4])
	if size > MaxFrameSize {
		return Frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	f := Frame{Type: FrameType(hdr[4])}
	if size > 0 {
		f.Payload = make([]byte, size)
		if _, err := io.ReadFull(r, f.Payload); err != nil {
			return Frame{}, fmt.Errorf("wire: read payload: %w", err)
		}
	}
	return f, nil
}
