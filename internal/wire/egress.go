package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/trace"
)

// This file is the egress half of the zero-allocation wire path: a
// per-connection double buffer. Producers — the delivery pump, control
// replies, a peer link's forwards — append complete frames into the fill
// batch under one short mutex; the connection's writer goroutine swaps it
// for the batch it wrote last and sends the one it took in one vectored
// write, so one write is in flight while the next batch fills.

// fillMaxFrames and fillMaxBytes bound a fill batch in frames (EXPERIMENTS.md
// X22 has the sweep) and in copied bytes. A producer at either waits for the
// writer's next swap: the push-back chain slow consumer → blocked pump →
// full outbox → blocked transmit stage. The bound is checked before a
// producer appends, so one burst may take a batch past it; half of
// maxPooledBuffer leaves room for that burst below the size at which the
// writer drops a batch's buffer instead of reusing it.
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
// On the first write error the writer closes the connection (which surfaces
// the failure to the read loop) and discards what it swaps out from then
// on, and begin no longer waits: producers never block on a dead peer.
//
// A frame may carry the end of its payload by reference (egressBatch.cuts,
// a delivery's message body). The tail is never written to: nobody writes
// into it while the frame is queued (jms.Message bodies are replaced, not
// modified, and a body in a recycled slab is held by the batch until the
// write), and the writer drops its reference after the write and releases
// the batch's holds.
type connWriter struct {
	conn   net.Conn
	stats  *wireCounters
	tracer *trace.Recorder // nil disables egress span recording

	mu   sync.Mutex
	room sync.Cond // producers at the bound wait here for the next swap
	fill *egressBatch
	dead bool  // a write failed: batches are discarded, begin never waits
	err  error // errWriterClosed once close has begun
	wake chan struct{}
	done chan struct{}
	// iov is the writer's gather list and out the copy of it a vectored
	// write consumes (net.Buffers.WriteTo advances the slice it is given).
	// Fields, not locals, so that a write moves no slice header to the heap.
	iov, out net.Buffers
}

// egressBatch is a run of complete frames back to back in buf. Each cut is a
// by-reference tail that goes out as its own iovec after buf[:at]; holds
// keep the storage of those tails from reuse until the batch is written. A
// head-sampled delivery's TraceID and enqueue instant ride in traced, so the
// writer can attribute its wait in the batch and its share of the writev
// syscall — the socket half of t_tx.
type egressBatch struct {
	buf    []byte
	cuts   []egressCut
	holds  []broker.Hold
	traced []tracedFrame
	frames int
}

type egressCut struct {
	at   int
	tail []byte
}

type tracedFrame struct {
	id    uint64
	enqNs int64
}

func newConnWriter(conn net.Conn, stats *wireCounters, tracer *trace.Recorder) *connWriter {
	w := &connWriter{conn: conn, stats: stats, tracer: tracer, fill: new(egressBatch),
		wake: make(chan struct{}, 1), done: make(chan struct{})}
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
	select {
	case w.wake <- struct{}{}:
	default:
	}
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
		w.mu.Lock()
		if w.err != nil {
			w.mu.Unlock()
			return
		}
		// A producer waits only on a full fill, whose wake is pending, so
		// the swap after a failed write publishes dead before any wedges.
		taken, w.fill, w.dead = w.fill, taken, dead
		w.room.Broadcast()
		w.mu.Unlock()
		if !dead && taken.frames > 0 && w.write(taken) != nil {
			// Closing the connection wakes the read loop, which tears the
			// connection down; from here on the writer only discards.
			dead = true
			_ = w.conn.Close()
		}
		if cap(taken.buf) > maxPooledBuffer {
			taken.buf = nil // one huge frame must not pin its memory
		}
		clear(taken.cuts) // nor may a batch keep a message body alive
		for _, h := range taken.holds {
			h.Release() // written or discarded: nothing reads the tails again
		}
		clear(taken.holds)
		taken.buf, taken.cuts, taken.holds, taken.traced, taken.frames = taken.buf[:0], taken.cuts[:0], taken.holds[:0], taken.traced[:0], 0
	}
}

// write sends b in one vectored write, buf cut at each by-reference tail.
func (w *connWriter) write(b *egressBatch) error {
	bufs := w.iov[:0]
	at, total := 0, len(b.buf)
	for _, c := range b.cuts {
		bufs = append(bufs, b.buf[at:c.at], c.tail)
		at = c.at
		total += len(c.tail)
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

// open starts a frame of type typ whose payload the caller appends to buf,
// and returns its start for seal.
func (b *egressBatch) open(typ FrameType) int {
	start := len(b.buf)
	b.buf = append(b.buf, 0, 0, 0, 0, byte(typ))
	return start
}

// seal completes the frame open started: its payload is buf[start+5:] and
// then tail, which goes out by reference when non-nil. The caller has
// checked the size against MaxFrameSize.
func (b *egressBatch) seal(start int, tail []byte) {
	binary.BigEndian.PutUint32(b.buf[start:], uint32(len(b.buf)-start-prologueSize+len(tail)))
	if tail != nil {
		b.cuts = append(b.cuts, egressCut{at: len(b.buf), tail: tail})
	}
	b.frames++
}
