package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
	"repro/internal/trace"
)

// This file is the egress half of the zero-allocation wire path: a
// per-connection double buffer, the same at both ends of a connection.
// Producers — the server's control replies, a peer link's forwards, a
// client's requests, publishes and acks (Egress) — append complete frames
// into the fill batch under one short mutex; the connection's writer
// goroutine encodes a served connection's outbox deliveries into it too,
// swaps it for the batch it wrote last and sends the one it took in one
// vectored write, so one write is in flight while the next batch fills.

// fillMaxFrames and fillMaxBytes bound a fill batch in frames (EXPERIMENTS.md
// X22 has the sweep) and in copied bytes. A producer at either waits for the
// writer's next swap, and the writer takes no more deliveries: the push-back
// chain slow consumer → blocked writer → full outbox → blocked transmit
// stage. The bound is checked before an append, so one burst may take a
// batch past it; half of maxPooledBuffer leaves room for that burst below
// the size at which the writer drops a batch's buffer instead of reusing it.
const (
	fillMaxFrames = 256
	fillMaxBytes  = maxPooledBuffer / 2
)

// errWriterClosed is returned by begin after the writer has shut down.
var errWriterClosed = errors.New("wire: connection writer closed")

// wireCounters are a Server's aggregate wire-path counters, shared by all
// connections and exported via Server.WireStats for telemetry.
type wireCounters struct {
	framesIn  atomic.Uint64
	bytesIn   atomic.Uint64
	readCalls atomic.Uint64

	framesOut  atomic.Uint64
	bytesOut   atomic.Uint64
	writeCalls atomic.Uint64
	writeNanos atomic.Uint64
}

// connWriter is one connection's egress double buffer.
//
// A producer calls begin, appends complete frames to the batch it returns
// and calls end, which wakes the writer with a non-blocking send on a
// 1-slot channel; the swap that wake leads to takes every frame appended
// before it, so each producer's frames leave in the order it appended them.
// On the first write error the writer ends the connection (fail), which
// surfaces the failure to the read loop, and discards what it swaps out
// from then on, and begin no longer waits: producers never block on a dead
// peer.
//
// A frame may carry message bodies by reference (egressBatch.cuts). Nobody
// writes into such a body while the frame is queued: a delivery's body is
// replaced, not modified, and one in a recycled slab is held by the batch
// until the write; a client's publish waits for its reply or, without one,
// for its batch (wait). The writer drops its references after the write and
// releases the batch's holds.
type connWriter struct {
	conn   net.Conn
	stats  *wireCounters
	tracer *trace.Recorder // nil disables egress span recording
	// sc is the served connection whose outbox the writer drains, nil on a
	// client's or a peer link's writer; wake is its outbox's Ready then.
	sc   *serverConn
	wake chan struct{}

	mu   sync.Mutex
	room sync.Cond // producers at the bound, and callers of wait, wait here for the next swap
	fill *egressBatch
	dead bool  // a write failed: batches are discarded, begin never waits
	err  error // errWriterClosed once close has begun
	done chan struct{}
	// swaps counts the batches taken, so the fill goes out in swap
	// swaps+1; written is the last swap whose batch is written or discarded.
	swaps, written uint64
	// iov is the writer's gather list and out the copy of it a vectored
	// write consumes (net.Buffers.WriteTo advances the slice it is given).
	// Fields, not locals, so that a write moves no slice header to the heap.
	iov, out net.Buffers
}

// egressBatch is a run of complete frames back to back in buf. Each cut is a
// by-reference message body that goes out as its own iovec after buf[:at];
// holds keep the storage of those bodies from reuse until the batch is written. A
// head-sampled delivery's TraceID and enqueue instant ride in traced, so the
// writer can attribute its wait in the batch and its share of the writev
// syscall — the socket half of t_tx. joinable is the MSG_BATCH frame that
// Egress.Join's publishes join.
type egressBatch struct {
	buf      []byte
	cuts     []egressCut
	holds    []broker.Hold
	traced   []tracedFrame
	frames   int
	joinable joinable
}

// joinable is the offset of the MSG_BATCH frame the last Egress.Join
// opened and the batch's frame count once that frame was sealed: the frame
// is open to joins while no other frame has been sealed after it. A swap
// clears it. Two int32s keep egressBatch, which every connection end has
// two of, in its size class.
type joinable struct{ at, frames int32 }

type egressCut struct {
	at   int
	body []byte
}

type tracedFrame struct {
	id    uint64
	enqNs int64
}

func newConnWriter(conn net.Conn, stats *wireCounters, tracer *trace.Recorder) *connWriter {
	return (&connWriter{conn: conn, stats: stats, tracer: tracer, wake: make(chan struct{}, 1)}).start()
}

// start starts the writer goroutine of w, whose fields up to wake are set.
func (w *connWriter) start() *connWriter {
	w.fill, w.done = new(egressBatch), make(chan struct{})
	w.room.L = &w.mu
	go w.run()
	return w
}

// begin locks the writer and returns the fill batch to append complete
// frames to; end releases it. A fill at its bound makes begin wait for the
// writer's next swap unless the connection is dead. It fails after close.
func (w *connWriter) begin() (*egressBatch, error) {
	w.mu.Lock()
	for w.err == nil && !w.dead && (w.fill.frames >= fillMaxFrames || len(w.fill.buf) >= fillMaxBytes) {
		w.room.Wait()
	}
	if err := w.err; err != nil {
		w.mu.Unlock()
		return nil, err
	}
	return w.fill, nil
}

func (w *connWriter) end() {
	w.mu.Unlock()
	w.kick()
}

// kick wakes the writer; one pending wake-up covers any number of kicks.
func (w *connWriter) kick() {
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

// wait returns once the batch swap s takes has been written or discarded, so
// nothing reads the by-reference bodies of its frames any more. It kicks the
// writer, whose next swap records a finished write. A failed writer reads
// nothing from then on; a closing one may still be writing, so wait waits for
// it to exit.
func (w *connWriter) wait(s uint64) {
	w.mu.Lock()
	for w.written < s && !w.dead && w.err == nil {
		w.kick()
		w.room.Wait()
	}
	closing := w.written < s && !w.dead
	w.mu.Unlock()
	if closing {
		<-w.done
	}
}

// push appends a frame of type typ whose payload is a and b without waiting
// for room, for a producer whose wait would close a cycle: a client's read
// loop acking (see Ack), a SUBSCRIBE holding pumpMu, which a served
// connection's writer takes before its swap. Nothing is appended after close.
func (w *connWriter) push(typ FrameType, a, b uint64) {
	w.mu.Lock()
	if w.err == nil {
		f := w.fill.open(typ)
		w.fill.buf = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(w.fill.buf, a), b)
		_, _ = w.fill.seal(f) // 16 bytes: never too large
	}
	w.end()
}

// close stops the writer and waits for it. Frames not yet written are
// discarded (the connection is gone by the time teardown calls this).
func (w *connWriter) close() {
	w.mu.Lock()
	w.err = errWriterClosed
	w.room.Broadcast()
	w.end()
	<-w.done
}

func (w *connWriter) run() {
	defer close(w.done)
	taken, dead := new(egressBatch), false
	for range w.wake {
		if w.sc != nil && !w.sc.takeBursts(w) {
			dead = true
			w.fail()
		}
		w.mu.Lock()
		if w.err != nil {
			w.mu.Unlock()
			return
		}
		// A producer waits only on a full fill, whose wake is pending, so
		// the swap after a failed write publishes dead before any wedges.
		// The batch taken last is done with by now.
		w.written = w.swaps
		w.swaps++
		taken, w.fill, w.dead = w.fill, taken, dead
		w.room.Broadcast()
		w.mu.Unlock()
		if !dead && taken.frames > 0 && w.write(taken) != nil {
			dead = true // from here on the writer only discards
			w.fail()
		}
		if cap(taken.buf) > maxPooledBuffer {
			taken.buf = nil // one huge frame must not pin its memory
		}
		clear(taken.cuts) // nor may a batch keep a message body alive
		for _, h := range taken.holds {
			h.Release() // written or discarded: nothing reads the bodies again
		}
		clear(taken.holds)
		taken.buf, taken.cuts, taken.holds, taken.traced, taken.frames = taken.buf[:0], taken.cuts[:0], taken.holds[:0], taken.traced[:0], 0
		taken.joinable = joinable{}
	}
}

// fail ends the connection of a writer that cannot send: closing it wakes
// the read loop, which tears the connection down. A served connection's
// outbox is closed first, so no transmit waits for room in it until then —
// the read loop may itself wait on such a transmit, to commit a publish —
// and teardown returns what is still queued there to a durable backlog.
func (w *connWriter) fail() {
	if w.sc != nil {
		w.sc.out.Close()
	}
	_ = w.conn.Close()
}

// write sends b in one vectored write, buf cut at each by-reference body.
func (w *connWriter) write(b *egressBatch) error {
	bufs := w.iov[:0]
	at, total := 0, len(b.buf)
	for _, c := range b.cuts {
		bufs = append(bufs, b.buf[at:c.at], c.body)
		at = c.at
		total += len(c.body)
	}
	if at < len(b.buf) {
		bufs = append(bufs, b.buf[at:])
	}
	// Counted before the write, so a frame the peer has seen is never
	// missing from the counters.
	w.stats.framesOut.Add(uint64(b.frames))
	w.stats.bytesOut.Add(uint64(total))
	start := time.Now()
	w.out = bufs
	_, err := w.out.WriteTo(w.conn)
	elapsed := time.Since(start)
	w.stats.writeCalls.Add(1)
	w.stats.writeNanos.Add(uint64(elapsed))
	// egress_queue is a traced frame's wait in the batch; its egress_write
	// span is an equal share of the syscall, the same per-frame quantity
	// WriteNanos/FramesOut averages.
	startNs, share := start.UnixNano(), int64(elapsed)/int64(b.frames)
	for _, f := range b.traced {
		w.tracer.RecordSpanNs(f.id, trace.StageEgressQueue, f.enqNs, startNs-f.enqNs)
		w.tracer.RecordSpanNs(f.id, trace.StageEgressWrite, startNs, share)
	}
	clear(bufs)
	w.iov = bufs[:0]
	return err
}

// frameStart is where open started a frame: its offset in buf and its first
// cut.
type frameStart struct{ at, cuts int }

// open starts a frame of type typ whose payload the caller appends to buf,
// and returns its start for seal.
func (b *egressBatch) open(typ FrameType) frameStart {
	f := frameStart{at: len(b.buf), cuts: len(b.cuts)}
	b.buf = append(b.buf, 0, 0, 0, 0, byte(typ))
	return f
}

// body appends a message body to the open frame: copied below bodyByRefMin
// bytes, from it on as a cut, gathered where it lies by the write.
func (b *egressBatch) body(p []byte) {
	if len(p) < bodyByRefMin {
		b.buf = append(b.buf, p...)
		return
	}
	b.cuts = append(b.cuts, egressCut{at: len(b.buf), body: p})
}

// seal completes the frame open started, whose payload is buf[f.at+5:] with
// the bodies cut from it, and returns the payload's size. A frame over
// MaxFrameSize is taken back out, and seal fails with ErrFrameTooLarge.
func (b *egressBatch) seal(f frameStart) (int, error) {
	size := len(b.buf) - f.at - prologueSize
	for _, c := range b.cuts[f.cuts:] {
		size += len(c.body)
	}
	if size > MaxFrameSize {
		b.buf = b.buf[:f.at]
		clear(b.cuts[f.cuts:])
		b.cuts = b.cuts[:f.cuts]
		return size, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	binary.BigEndian.PutUint32(b.buf[f.at:], uint32(size))
	b.frames++
	return size, nil
}

// Egress is a client connection's writer: the connWriter of the server's
// connections and peer links behind the frames a client sends. Each method
// appends one complete frame to the fill batch and returns; the writer
// goroutine sends it, coalesced with the connection's other frames, in one
// vectored write. Request, Publish and Batch wait while the fill is at its
// bound; Ack never does.
//
// A message body of bodyByRefMin bytes or more is not copied but gathered
// where it lies, so Publish and Batch return the Sent their frame went out
// in: the caller must not write into such a body before the frame's reply
// has arrived (the frame was written before it) or Wait has returned.
type Egress struct{ w *connWriter }

// Sent names the batch a frame went out in, for Egress.Wait; zero when the
// frame copied every byte it sends.
type Sent uint64

// NewEgress starts the writer of a client connection on conn.
func NewEgress(conn net.Conn) *Egress {
	return &Egress{newConnWriter(conn, new(wireCounters), nil)}
}

// Request appends a request frame: reqID, then payload, copied.
func (e *Egress) Request(typ FrameType, reqID uint64, payload []byte) error {
	b, f, err := e.open(typ, reqID)
	if err != nil {
		return err
	}
	b.buf = append(b.buf, payload...)
	_, err = e.seal(b, f)
	return err
}

// Publish appends a PUBLISH request for m.
func (e *Egress) Publish(reqID uint64, m *jms.Message) (Sent, error) {
	b, f, err := e.open(FramePublish, reqID)
	if err != nil {
		return 0, err
	}
	b.buf = appendMessageHead(b.buf, m)
	b.body(m.Body)
	return e.seal(b, f)
}

// Batch appends a MSG_BATCH request for msgs, in AppendBatch's encoding.
func (e *Egress) Batch(reqID uint64, msgs []*jms.Message) (Sent, error) {
	b, f, err := e.open(FrameBatch, reqID)
	if err != nil {
		return 0, err
	}
	b.buf = binary.BigEndian.AppendUint32(b.buf, uint32(len(msgs)))
	for _, m := range msgs {
		b.buf = appendBatchHead(b.buf, m)
		b.body(m.Body)
	}
	return e.seal(b, f)
}

// Join appends m to the open MSG_BATCH frame of the fill batch — the one
// the last Join opened, while no other frame has been sealed after it and
// the writer has not taken it — if that frame holds fewer than max messages
// and stays within MaxFrameSize with m, and reports true. Failing that, it
// appends nothing when reqID is 0, and otherwise opens a MSG_BATCH frame
// with reqID for m alone, which later calls may join. Either way the frame
// is AppendBatch's encoding of its messages.
func (e *Egress) Join(reqID uint64, m *jms.Message, max int) (bool, Sent, error) {
	b, err := e.w.begin()
	if err != nil {
		return false, 0, err
	}
	f, n := frameStart{at: int(b.joinable.at), cuts: len(b.cuts)}, 0
	if b.frames > 0 && int(b.joinable.frames) == b.frames {
		for f.cuts > 0 && b.cuts[f.cuts-1].at > f.at {
			f.cuts-- // the frame's own bodies by reference
		}
		n = int(binary.BigEndian.Uint32(b.buf[f.at+prologueSize+8:]))
		if n >= max || int(binary.BigEndian.Uint32(b.buf[f.at:]))+4+MessageSizeHint(m) > MaxFrameSize {
			n = 0
		}
	}
	switch {
	case n > 0:
		b.frames-- // sealed again below, with m
	case reqID == 0:
		e.w.mu.Unlock()
		return false, 0, nil
	default:
		f = b.open(FrameBatch)
		b.buf = binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint64(b.buf, reqID), 0)
	}
	binary.BigEndian.PutUint32(b.buf[f.at+prologueSize+8:], uint32(n+1))
	b.buf = appendBatchHead(b.buf, m)
	b.body(m.Body)
	if _, err = b.seal(f); err == nil {
		b.joinable = joinable{int32(f.at), int32(b.frames)}
	}
	s, err := e.end(b, f.cuts, err)
	return n > 0, s, err
}

// Ack appends a MSG_ACK frame. It never waits for room: a client's read
// loop acks, and one blocked on its own writer would close a cycle through
// the server — its writer blocked on this client's full socket, its outbox
// full, its intake full, its read loop blocked, so this client's writer
// blocked too. The acks held meanwhile are bounded by the deliveries
// the server sent.
func (e *Egress) Ack(subID, seq uint64) { e.w.push(FrameMsgAck, subID, seq) }

// Wait returns once the batch s went out in has been written or discarded:
// nothing reads the frame's by-reference bodies after. A call that returns
// before its reply calls it first.
func (e *Egress) Wait(s Sent) {
	if s != 0 {
		e.w.wait(uint64(s))
	}
}

// Close stops the writer; frames not yet written are discarded.
func (e *Egress) Close() { e.w.close() }

// open locks the writer and starts a request frame of type typ with reqID.
func (e *Egress) open(typ FrameType, reqID uint64) (*egressBatch, frameStart, error) {
	b, err := e.w.begin()
	if err != nil {
		return nil, frameStart{}, err
	}
	f := b.open(typ)
	b.buf = binary.BigEndian.AppendUint64(b.buf, reqID)
	return b, f, nil
}

// seal completes the frame open started and unlocks the writer.
func (e *Egress) seal(b *egressBatch, f frameStart) (Sent, error) {
	_, err := b.seal(f)
	return e.end(b, f.cuts, err)
}

// end unlocks the writer. Unless err, it returns the batch's Sent when the
// frame's bodies, from cut cuts on, include one by reference.
func (e *Egress) end(b *egressBatch, cuts int, err error) (Sent, error) {
	var s Sent
	if err == nil && len(b.cuts) > cuts {
		s = Sent(e.w.swaps + 1)
	}
	e.w.end()
	return s, err
}
