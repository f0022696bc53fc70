package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"

	"repro/internal/jms"
)

// Request is one request frame — prologue, request ID and payload — staged
// for a single write: the client's send path for every request, publishes
// included. The frame is encoded into one pooled buffer, except that a
// message body of bodyByRefMin bytes or more is not copied: the frame
// references it where it lies, and WriteTo gathers it as its own iovec of one
// vectored write, as delivery egress does. The bytes written are those of
// WriteFrame with the same payload.
//
// Ownership contract: a by-reference body is read during WriteTo only, and
// the caller must not write into it before WriteTo returns — Publish's
// contract already. NewRequest takes a Request from a pool and Release
// returns it; a released Request must not be used again.
type Request struct {
	// buf holds the prologue and the payload, less the by-reference bodies.
	buf []byte
	// refs are the by-reference bodies in frame order.
	refs []bodyRef
	// iov is WriteTo's gather list, and out the copy of it the vectored
	// write consumes (net.Buffers.WriteTo advances the slice it is given).
	iov, out net.Buffers
}

var requestPool = sync.Pool{
	New: func() any { return &Request{buf: make([]byte, 0, 512)} },
}

// NewRequest starts a frame of type typ whose payload opens with reqID.
func NewRequest(typ FrameType, reqID uint64) *Request {
	r := requestPool.Get().(*Request)
	r.buf = binary.BigEndian.AppendUint64(append(r.buf[:0], 0, 0, 0, 0, byte(typ)), reqID)
	return r
}

// AppendBytes appends b to the payload, copied.
func (r *Request) AppendBytes(b []byte) { r.buf = append(r.buf, b...) }

// AppendMessage appends the AppendMessage encoding of m to the payload: a
// PUBLISH request.
func (r *Request) AppendMessage(m *jms.Message) {
	r.buf = appendBody(appendMessageHead(r.buf, m), m.Body, &r.refs)
}

// AppendBatch appends the AppendBatch encoding of msgs to the payload: a
// MSG_BATCH request. The buffer is first grown to what the batch leaves in
// it — BatchSizeHint less the bodies that go by reference — so a batch too
// large to pool is allocated once, exactly, instead of doubled up to its
// size, and a batch of large bodies stays small enough to pool.
func (r *Request) AppendBatch(msgs []*jms.Message) {
	hint := BatchSizeHint(msgs)
	for _, m := range msgs {
		if len(m.Body) >= bodyByRefMin {
			hint -= len(m.Body)
		}
	}
	r.buf = appendBatch(slices.Grow(r.buf, hint), msgs, &r.refs)
}

// WriteTo writes the frame to w: with one Write when every body was copied,
// else with one vectored net.Buffers write, one writev syscall on a
// *net.TCPConn. A frame over MaxFrameSize is not written.
func (r *Request) WriteTo(w io.Writer) (int64, error) {
	size := len(r.buf) - prologueSize
	for _, ref := range r.refs {
		size += len(ref.body)
	}
	if size > MaxFrameSize {
		return 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	binary.BigEndian.PutUint32(r.buf, uint32(size))
	var n int64
	var err error
	if len(r.refs) == 0 {
		var nw int
		nw, err = w.Write(r.buf)
		n = int64(nw)
	} else {
		// Every body follows a head, so no segment of buf between two
		// bodies is empty; only the one after the last body can be.
		r.iov = r.iov[:0]
		at := 0
		for _, ref := range r.refs {
			r.iov = append(r.iov, r.buf[at:ref.at], ref.body)
			at = ref.at
		}
		if at < len(r.buf) {
			r.iov = append(r.iov, r.buf[at:])
		}
		r.out = r.iov
		n, err = r.out.WriteTo(w)
	}
	if err != nil {
		return n, fmt.Errorf("wire: write frame: %w", err)
	}
	return n, nil
}

// Release returns r to the pool. It drops every body reference first, so a
// pooled Request keeps no message alive; a buffer PutBuffer would not keep
// is dropped with its Request.
func (r *Request) Release() {
	if cap(r.buf) > maxPooledBuffer {
		return
	}
	clear(r.refs)
	clear(r.iov)
	r.refs, r.iov, r.out = r.refs[:0], r.iov[:0], nil
	requestPool.Put(r)
}
