package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"repro/internal/jms"
)

// bufPool recycles the encode buffers of WriteFrame, so a frame written
// through it allocates no fresh buffer.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 512)
		return &b
	},
}

// maxPooledBuffer bounds what PutBuffer keeps: returning the occasional
// huge frame's buffer to the pool would pin its memory.
const maxPooledBuffer = 64 << 10

// bodyByRefMin is the body size from which a frame carries a message body by
// reference, as its own iovec of one vectored write, instead of copying it
// behind the encoded head (egressBatch.body): deliveries and publishes
// alike. Below it the extra iovec costs more than the copy it saves
// (EXPERIMENTS.md X14 has the sweep); from it on, encode cost no longer
// depends on body size.
const bodyByRefMin = 1 << 10

// GetBuffer returns a pooled, zero-length encode buffer. Return it with
// PutBuffer once the encoded bytes have been written out.
func GetBuffer() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuffer returns a buffer obtained from GetBuffer to the pool.
func PutBuffer(b *[]byte) {
	if cap(*b) > maxPooledBuffer {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// encoder appends big-endian primitives to a buffer.
type encoder struct {
	buf []byte
}

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) i64(v int64)  { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) {
	e.u64(math.Float64bits(v))
}

func (e *encoder) str(s string) {
	e.u32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// decoder consumes big-endian primitives from a payload.
type decoder struct {
	buf []byte
	off int
}

func (d *decoder) remain() int { return len(d.buf) - d.off }

func (d *decoder) u8() (uint8, error) {
	if d.remain() < 1 {
		return 0, ErrTruncated
	}
	v := d.buf[d.off]
	d.off++
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if d.remain() < 4 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if d.remain() < 8 {
		return 0, ErrTruncated
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v, nil
}

func (d *decoder) i64() (int64, error) {
	v, err := d.u64()
	return int64(v), err
}

func (d *decoder) f64() (float64, error) {
	v, err := d.u64()
	return math.Float64frombits(v), err
}

func (d *decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if d.remain() < int(n) {
		return "", ErrTruncated
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

func (d *decoder) bytesField() ([]byte, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if d.remain() < int(n) {
		return nil, ErrTruncated
	}
	if n == 0 {
		return nil, nil
	}
	b := make([]byte, n)
	copy(b, d.buf[d.off:])
	d.off += int(n)
	return b, nil
}

// MessageSizeHint over-approximates the encoded size of m (the approximate
// payload size plus the fixed-width field and length-prefix overhead), so
// encode buffers can be pre-sized to append without growing.
func MessageSizeHint(m *jms.Message) int {
	return m.Size() + 24 + 12*m.NumProperties()
}

// EncodeMessage serializes a message into a pre-sized frame payload. Hot
// paths that already hold a (pooled) buffer use AppendMessage instead.
func EncodeMessage(m *jms.Message) []byte {
	return AppendMessage(make([]byte, 0, MessageSizeHint(m)), m)
}

// AppendMessage appends the wire encoding of m to buf and returns the
// extended slice.
//
// Layout: messageID u64, topic str, corrID str, mode u8, priority u8,
// timestamp i64 (unix nanos), expiration i64 (0 = never), traceID u64
// (0 = untraced), property count u32, properties (name str, type u8,
// value), body bytes.
func AppendMessage(buf []byte, m *jms.Message) []byte {
	return append(appendMessageHead(buf, m), m.Body...)
}

// appendMessageHead appends everything of m's encoding but the body bytes:
// header, properties and the body's u32 length. The body follows verbatim, so
// head + m.Body is the AppendMessage encoding.
func appendMessageHead(buf []byte, m *jms.Message) []byte {
	e := encoder{buf: buf}
	e.u64(m.Header.MessageID)
	e.str(m.Header.Topic)
	e.str(m.Header.CorrelationID)
	e.u8(uint8(m.Header.DeliveryMode))
	e.u8(uint8(m.Header.Priority))
	e.i64(m.Header.Timestamp)
	e.i64(m.Header.Expiration)
	e.u64(m.Header.TraceID)
	// The property section is kept in name order, which is the wire order.
	n := m.NumProperties()
	e.u32(uint32(n))
	for i := 0; i < n; i++ {
		name, p := m.PropertyAt(i)
		e.str(name)
		e.u8(uint8(p.Type))
		switch p.Type {
		case jms.TypeBool:
			if p.B {
				e.u8(1)
			} else {
				e.u8(0)
			}
		case jms.TypeInt32, jms.TypeInt64:
			e.i64(p.I)
		case jms.TypeFloat64:
			e.f64(p.F)
		case jms.TypeString:
			e.str(p.S)
		}
	}
	e.u32(uint32(len(m.Body)))
	return e.buf
}

// DecodeMessage parses a frame payload produced by EncodeMessage.
func DecodeMessage(payload []byte) (*jms.Message, error) {
	d := decoder{buf: payload}
	var m jms.Message
	var err error
	if m.Header.MessageID, err = d.u64(); err != nil {
		return nil, err
	}
	if m.Header.Topic, err = d.str(); err != nil {
		return nil, err
	}
	corrID, err := d.str()
	if err != nil {
		return nil, err
	}
	if err := m.SetCorrelationID(corrID); err != nil {
		return nil, err
	}
	mode, err := d.u8()
	if err != nil {
		return nil, err
	}
	m.Header.DeliveryMode = jms.DeliveryMode(mode)
	prio, err := d.u8()
	if err != nil {
		return nil, err
	}
	m.Header.Priority = int8(prio)
	if m.Header.Timestamp, err = d.i64(); err != nil {
		return nil, err
	}
	if m.Header.Expiration, err = d.i64(); err != nil {
		return nil, err
	}
	if m.Header.TraceID, err = d.u64(); err != nil {
		return nil, err
	}

	nProps, err := d.u32()
	if err != nil {
		return nil, err
	}
	// Check the section first, then set the properties in the order that
	// appends to the message's sorted section: wire order when the names
	// arrive ascending, as the encoder writes them.
	propsOff := d.off
	ordered, _, err := d.skipProperties(int(nProps))
	if err != nil {
		return nil, err
	}
	propsEnd := d.off
	n := int(nProps)
	var order []int
	if !ordered {
		order = propertyOrder(payload, propsOff, n)
		n = len(order)
	}
	d.off = propsOff
	for i := 0; i < n; i++ {
		if order != nil {
			d.off = order[i]
		}
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		typ, err := d.u8()
		if err != nil {
			return nil, err
		}
		switch jms.PropertyType(typ) {
		case jms.TypeBool:
			v, err := d.u8()
			if err != nil {
				return nil, err
			}
			if err := m.SetBoolProperty(name, v != 0); err != nil {
				return nil, err
			}
		case jms.TypeInt32:
			v, err := d.i64()
			if err != nil {
				return nil, err
			}
			if err := m.SetInt32Property(name, int32(v)); err != nil {
				return nil, err
			}
		case jms.TypeInt64:
			v, err := d.i64()
			if err != nil {
				return nil, err
			}
			if err := m.SetInt64Property(name, v); err != nil {
				return nil, err
			}
		case jms.TypeFloat64:
			v, err := d.f64()
			if err != nil {
				return nil, err
			}
			if err := m.SetFloat64Property(name, v); err != nil {
				return nil, err
			}
		case jms.TypeString:
			v, err := d.str()
			if err != nil {
				return nil, err
			}
			if err := m.SetStringProperty(name, v); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wire: unknown property type %d", typ)
		}
	}
	d.off = propsEnd
	if m.Body, err = d.bytesField(); err != nil {
		return nil, err
	}
	if d.remain() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in message payload", d.remain())
	}
	return &m, nil
}

// FilterSpec describes a filter in SUBSCRIBE frames. Mode selects the
// filter family; Expr is the correlation-ID expression or selector source.
// A non-empty DurableName requests a durable subscription under that name:
// messages matching the filter are buffered server-side while no consumer
// is attached.
type FilterSpec struct {
	Mode        FilterMode
	Expr        string
	DurableName string
	// Acked requests acknowledged delivery: every MESSAGE frame carries a
	// delivery sequence number the consumer must answer with MSG_ACK, and
	// deliveries that were written but never acked when the connection
	// dies are requeued to the durable backlog instead of being lost.
	// Only meaningful together with DurableName: the server serves any
	// other acked subscription as a plain one (sequence 0, no MSG_ACK).
	Acked bool
}

// FilterMode selects the filter family in a FilterSpec.
type FilterMode uint8

// Filter modes.
const (
	// FilterNone subscribes to all messages of the topic.
	FilterNone FilterMode = iota + 1
	// FilterCorrelationID matches the correlation ID expression.
	FilterCorrelationID
	// FilterSelector matches a JMS selector.
	FilterSelector
)

// subscribeAcked is the flags bit requesting acknowledged delivery.
const subscribeAcked = 1 << 0

// EncodeSubscribe builds a SUBSCRIBE payload: topic str, mode u8, expr
// str, durable name str (empty for non-durable), flags u8.
func EncodeSubscribe(topicName string, spec FilterSpec) []byte {
	var e encoder
	e.str(topicName)
	e.u8(uint8(spec.Mode))
	e.str(spec.Expr)
	e.str(spec.DurableName)
	var flags uint8
	if spec.Acked {
		flags |= subscribeAcked
	}
	e.u8(flags)
	return e.buf
}

// DecodeSubscribe parses a SUBSCRIBE payload.
func DecodeSubscribe(payload []byte) (topicName string, spec FilterSpec, err error) {
	d := decoder{buf: payload}
	if topicName, err = d.str(); err != nil {
		return "", FilterSpec{}, err
	}
	mode, err := d.u8()
	if err != nil {
		return "", FilterSpec{}, err
	}
	spec.Mode = FilterMode(mode)
	if spec.Expr, err = d.str(); err != nil {
		return "", FilterSpec{}, err
	}
	if spec.DurableName, err = d.str(); err != nil {
		return "", FilterSpec{}, err
	}
	flags, err := d.u8()
	if err != nil {
		return "", FilterSpec{}, err
	}
	spec.Acked = flags&subscribeAcked != 0
	return topicName, spec, nil
}

// EncodeU64 builds a payload holding a single u64 (ack ids, sub ids).
func EncodeU64(v uint64) []byte {
	var e encoder
	e.u64(v)
	return e.buf
}

// DecodeU64 parses a single-u64 payload.
func DecodeU64(payload []byte) (uint64, error) {
	d := decoder{buf: payload}
	return d.u64()
}

// EncodeDelivery builds a MESSAGE payload: subscription id u64, delivery
// sequence u64 (0 when the subscription is not acked), then the encoded
// message.
func EncodeDelivery(subID, seq uint64, m *jms.Message) []byte {
	return AppendDelivery(make([]byte, 0, 16+MessageSizeHint(m)), subID, seq, m)
}

// AppendDelivery appends a MESSAGE payload to buf and returns the extended
// slice — the zero-extra-copy form of EncodeDelivery for pooled buffers.
func AppendDelivery(buf []byte, subID, seq uint64, m *jms.Message) []byte {
	return append(appendDeliveryHead(buf, subID, seq, m), m.Body...)
}

// appendDeliveryHead appends a MESSAGE payload up to and including the body's
// length; AppendDelivery's bytes are this followed by m.Body.
func appendDeliveryHead(buf []byte, subID, seq uint64, m *jms.Message) []byte {
	e := encoder{buf: buf}
	e.u64(subID)
	e.u64(seq)
	return appendMessageHead(e.buf, m)
}

// DecodeDelivery parses a MESSAGE payload.
func DecodeDelivery(payload []byte) (subID, seq uint64, m *jms.Message, err error) {
	d := decoder{buf: payload}
	if subID, err = d.u64(); err != nil {
		return 0, 0, nil, err
	}
	if seq, err = d.u64(); err != nil {
		return 0, 0, nil, err
	}
	m, err = DecodeMessage(payload[d.off:])
	return subID, seq, m, err
}

// DeliveryRef names one subscription a delivery frame is for: its
// connection-local ID and its delivery sequence (0 unless the subscription
// is acked).
type DeliveryRef struct {
	SubID, Seq uint64
}

// AppendFanout appends a MESSAGE_FANOUT payload to buf: the subscriptions
// refs names, then m, encoded once for all of them.
func AppendFanout(buf []byte, refs []DeliveryRef, m *jms.Message) []byte {
	return append(appendFanoutHead(buf, refs, m), m.Body...)
}

// appendFanoutHead appends a MESSAGE_FANOUT payload up to and including the
// body's length; AppendFanout's bytes are this followed by m.Body.
func appendFanoutHead(buf []byte, refs []DeliveryRef, m *jms.Message) []byte {
	e := encoder{buf: buf}
	e.u32(uint32(len(refs)))
	for _, r := range refs {
		e.u64(r.SubID)
		e.u64(r.Seq)
	}
	return appendMessageHead(e.buf, m)
}

// DecodeFanout parses a MESSAGE_FANOUT payload.
func DecodeFanout(payload []byte) ([]DeliveryRef, *jms.Message, error) {
	refs, off, err := appendFanoutRefs(nil, payload)
	if err != nil {
		return nil, nil, err
	}
	m, err := DecodeMessage(payload[off:])
	if err != nil {
		return nil, nil, err
	}
	return refs, m, nil
}

// appendFanoutRefs appends the subscriptions a MESSAGE_FANOUT payload names
// to dst and returns it with the offset of the message encoding.
func appendFanoutRefs(dst []DeliveryRef, payload []byte) ([]DeliveryRef, int, error) {
	d := decoder{buf: payload}
	n, err := d.u32()
	if err != nil {
		return dst, 0, err
	}
	if n == 0 {
		return dst, 0, fmt.Errorf("wire: fanout to no subscription")
	}
	if int64(n)*16 > int64(d.remain()) {
		return dst, 0, fmt.Errorf("%w: fanout count %d exceeds payload", ErrTruncated, n)
	}
	end := d.off + 16*int(n)
	for refs := payload[d.off:end]; len(refs) > 0; refs = refs[16:] {
		dst = append(dst, DeliveryRef{SubID: binary.BigEndian.Uint64(refs), Seq: binary.BigEndian.Uint64(refs[8:])})
	}
	return dst, end, nil
}

// EncodeAck builds a MSG_ACK payload: subscription id u64, delivery
// sequence u64. MSG_ACK frames carry no request ID.
func EncodeAck(subID, seq uint64) []byte {
	var e encoder
	e.u64(subID)
	e.u64(seq)
	return e.buf
}

// DecodeAck parses a MSG_ACK payload.
func DecodeAck(payload []byte) (subID, seq uint64, err error) {
	d := decoder{buf: payload}
	if subID, err = d.u64(); err != nil {
		return 0, 0, err
	}
	seq, err = d.u64()
	return subID, seq, err
}

// EncodeError builds an ERROR payload: request id u64, message str.
func EncodeError(reqID uint64, msg string) []byte {
	var e encoder
	e.u64(reqID)
	e.str(msg)
	return e.buf
}

// DecodeError parses an ERROR payload.
func DecodeError(payload []byte) (reqID uint64, msg string, err error) {
	d := decoder{buf: payload}
	if reqID, err = d.u64(); err != nil {
		return 0, "", err
	}
	msg, err = d.str()
	return reqID, msg, err
}

// EncodeSubClosed builds a SUB_CLOSED payload: subscription id u64,
// reason str.
func EncodeSubClosed(subID uint64, reason string) []byte {
	var e encoder
	e.u64(subID)
	e.str(reason)
	return e.buf
}

// DecodeSubClosed parses a SUB_CLOSED payload.
func DecodeSubClosed(payload []byte) (subID uint64, reason string, err error) {
	d := decoder{buf: payload}
	if subID, err = d.u64(); err != nil {
		return 0, "", err
	}
	reason, err = d.str()
	return subID, reason, err
}

// EncodeString builds a single-string payload (topic configuration).
func EncodeString(s string) []byte {
	var e encoder
	e.str(s)
	return e.buf
}

// DecodeString parses a single-string payload.
func DecodeString(payload []byte) (string, error) {
	d := decoder{buf: payload}
	return d.str()
}
