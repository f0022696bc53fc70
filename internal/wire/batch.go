package wire

import (
	"encoding/binary"
	"fmt"

	"repro/internal/jms"
)

// MSG_BATCH payload layout: message count u32, then per message a u32
// length prefix followed by the message's AppendMessage encoding. The
// per-message length prefix makes every message independently decodable
// (DecodeMessage rejects trailing bytes, so the prefix is also verified
// exact), and a batch of one carries byte-identical message bytes to a
// plain PUBLISH payload.

// AppendBatch appends the wire encoding of a batch to buf and returns the
// extended slice.
func AppendBatch(buf []byte, msgs []*jms.Message) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(msgs)))
	for _, m := range msgs {
		buf = append(appendBatchHead(buf, m), m.Body...)
	}
	return buf
}

// appendBatchHead appends one batch member up to its body: the length
// prefix, then appendMessageHead's encoding.
func appendBatchHead(buf []byte, m *jms.Message) []byte {
	lenAt := len(buf)
	buf = appendMessageHead(append(buf, 0, 0, 0, 0), m)
	binary.BigEndian.PutUint32(buf[lenAt:], uint32(len(buf)-lenAt-4+len(m.Body)))
	return buf
}

// BatchSizeHint over-approximates the size of AppendBatch's encoding of msgs.
func BatchSizeHint(msgs []*jms.Message) int {
	hint := 4
	for _, m := range msgs {
		hint += 4 + MessageSizeHint(m)
	}
	return hint
}

// EncodeBatch serializes a batch into a pre-sized payload. Hot paths that
// already hold a (pooled) buffer use AppendBatch instead.
func EncodeBatch(msgs []*jms.Message) []byte {
	return AppendBatch(make([]byte, 0, BatchSizeHint(msgs)), msgs)
}

// DecodeBatch parses a payload produced by EncodeBatch. The declared
// message count is bounds-checked against the payload size before any
// allocation, so a corrupt count cannot force a huge slice.
func DecodeBatch(payload []byte) ([]*jms.Message, error) {
	d := decoder{buf: payload}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	// Every message costs at least its 4-byte length prefix.
	if int64(n)*4 > int64(d.remain()) {
		return nil, fmt.Errorf("%w: batch count %d exceeds payload", ErrTruncated, n)
	}
	msgs := make([]*jms.Message, 0, n)
	for i := uint32(0); i < n; i++ {
		sz, err := d.u32()
		if err != nil {
			return nil, err
		}
		if d.remain() < int(sz) {
			return nil, ErrTruncated
		}
		m, err := DecodeMessage(d.buf[d.off : d.off+int(sz)])
		if err != nil {
			return nil, fmt.Errorf("wire: batch message %d: %w", i, err)
		}
		d.off += int(sz)
		msgs = append(msgs, m)
	}
	if d.remain() != 0 {
		return nil, fmt.Errorf("wire: %d trailing bytes in batch payload", d.remain())
	}
	return msgs, nil
}
