package wire

import (
	"encoding/binary"
	"errors"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// This file is the egress half of the zero-allocation wire path: a
// per-connection write queue whose single writer goroutine gathers queued
// frames — the connection's deliveries plus control replies — into one
// vectored net.Buffers write. Producers enqueue complete frames and the
// writer coalesces across them, so they share syscalls instead of
// contending for them.

// writerQueueDepth bounds the per-connection egress queue. A full queue
// blocks the producer (the delivery pump, control replies), which is
// exactly the push-back chain: slow consumer connection → blocked pump →
// full outbox → blocked transmit stage.
const writerQueueDepth = 256

// writeCoalesce bounds how many queued frames one writev gathers — frames,
// not buffers: a frame with a by-reference tail is two. Past the low tens the
// syscall amortization has flattened out and larger gathers only add latency
// for the frames at the head.
const writeCoalesce = 32

// errWriterClosed is returned by submit after the writer has shut down.
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

// connWriter is one connection's coalescing egress queue.
//
// Ownership contract: submit passes ownership of a pooled buffer holding
// one complete frame (5-byte prologue + payload) to the writer, which
// returns it to the pool after the write — the producer must not touch the
// buffer afterwards. On the first write error the writer closes the
// connection (which surfaces the failure to the read loop) and drains
// subsequent submissions without writing, so producers never block on a
// dead peer.
//
// A frame may carry the end of its payload by reference (egressFrame.tail,
// today a delivery's message body). The tail is never pooled and never
// written to: it belongs to the garbage collector, the producer guarantees
// nobody writes into it while the frame is queued (jms.Message bodies are
// replaced, not modified), and the writer drops its reference after the write.
type connWriter struct {
	conn   net.Conn
	stats  *wireCounters   // nil disables counting
	tracer *trace.Recorder // nil disables egress span recording
	ch     chan egressFrame
	stop   chan struct{}
	done   chan struct{}
	// out is the copy of the gather list a vectored write consumes
	// (net.Buffers.WriteTo advances the slice it is given). A field, not a
	// local, so that the write does not move a slice header to the heap.
	out net.Buffers
}

// egressFrame is one queued frame: a pooled buffer holding the prologue and
// the payload, or the payload up to a tail that goes out by reference. A
// head-sampled delivery also carries its TraceID and enqueue instant through
// the queue so the writer can attribute the writer-queue wait and this
// frame's share of the writev syscall — the socket half of t_tx. Plain
// frames carry a zero ID and cost nothing extra.
type egressFrame struct {
	bp      *[]byte
	tail    []byte
	traceID uint64
	enqNs   int64
}

func newConnWriter(conn net.Conn, stats *wireCounters, tracer *trace.Recorder) *connWriter {
	w := &connWriter{
		conn:   conn,
		stats:  stats,
		tracer: tracer,
		ch:     make(chan egressFrame, writerQueueDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go w.run()
	return w
}

// submit queues one complete frame built in a pooled buffer, transferring
// its ownership to the writer. It blocks while the queue is full
// (push-back) and fails only after the writer has shut down.
func (w *connWriter) submit(bp *[]byte) error {
	return w.submitFrame(egressFrame{bp: bp})
}

// submitFrame is submit for a frame with a by-reference tail or a
// flight-recorder identity; see egressFrame.
func (w *connWriter) submitFrame(ef egressFrame) error {
	select {
	case w.ch <- ef:
		return nil
	case <-w.done:
		PutBuffer(ef.bp)
		return errWriterClosed
	}
}

// close stops the writer and waits for it; queued frames are discarded
// (the connection is gone by the time teardown calls this).
func (w *connWriter) close() {
	close(w.stop)
	<-w.done
}

func (w *connWriter) run() {
	defer close(w.done)
	bufs := make(net.Buffers, 0, 2*writeCoalesce)
	frames := make([]egressFrame, 0, writeCoalesce)
	dead := false
	for {
		var ef egressFrame
		select {
		case ef = <-w.ch:
		case <-w.stop:
			for {
				select {
				case ef := <-w.ch:
					PutBuffer(ef.bp)
				default:
					return
				}
			}
		}
		// Greedy gather: everything already queued, up to the coalesce
		// bound, goes out in one vectored write.
		frames = append(frames[:0], ef)
		for len(frames) < writeCoalesce {
			select {
			case ef = <-w.ch:
				frames = append(frames, ef)
			default:
				goto gathered
			}
		}
	gathered:
		if !dead {
			bufs = bufs[:0]
			var total int
			anyTraced := false
			for _, f := range frames {
				bufs = append(bufs, *f.bp)
				total += len(*f.bp) + len(f.tail)
				if f.tail != nil {
					bufs = append(bufs, f.tail)
				}
				anyTraced = anyTraced || f.traceID != 0
			}
			if w.stats != nil {
				// Counted before the write, so a frame the peer has seen is
				// never missing from the counters.
				w.stats.framesOut.Add(uint64(len(frames)))
				w.stats.bytesOut.Add(uint64(total))
			}
			start := time.Now()
			var err error
			if len(bufs) == 1 {
				_, err = w.conn.Write(bufs[0])
			} else {
				w.out = bufs
				_, err = w.out.WriteTo(w.conn)
			}
			elapsed := time.Since(start)
			if w.stats != nil {
				w.stats.writeCalls.Add(1)
				w.stats.writeNanos.Add(uint64(elapsed))
			}
			if anyTraced {
				// egress_queue is the frame's wait in this queue; its
				// egress_write span is an equal share of the syscall, the
				// same per-frame quantity WriteNanos/FramesOut averages.
				startNs := start.UnixNano()
				share := int64(elapsed) / int64(len(frames))
				for _, f := range frames {
					if f.traceID != 0 {
						w.tracer.RecordSpanNs(f.traceID, trace.StageEgressQueue, f.enqNs, startNs-f.enqNs)
						w.tracer.RecordSpanNs(f.traceID, trace.StageEgressWrite, startNs, share)
					}
				}
			}
			if err != nil {
				// Surface the failure: closing the connection wakes the read
				// loop, which tears the connection down. From here on the
				// writer only drains, so producers never wedge.
				dead = true
				_ = w.conn.Close()
			}
		}
		for _, f := range frames {
			PutBuffer(f.bp)
		}
		// Neither array may keep a message body alive while the writer idles.
		clear(frames)
		clear(bufs)
	}
}

// frameBuffer builds one complete frame (prologue + payload copy) in a
// pooled buffer, ready for connWriter.submit.
func frameBuffer(f Frame) (*[]byte, error) {
	if len(f.Payload) > MaxFrameSize {
		return nil, ErrFrameTooLarge
	}
	bp := GetBufferSize(prologueSize + len(f.Payload))
	buf := binary.BigEndian.AppendUint32((*bp)[:0], uint32(len(f.Payload)))
	buf = append(buf, byte(f.Type))
	*bp = append(buf, f.Payload...)
	return bp, nil
}
