package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/trace"
)

// Server exposes a broker over TCP. Every request frame carries a client
// request ID as its first u64; replies echo it, so clients can pipeline.
// Publish acknowledgements double as the network form of the push-back
// mechanism: the server acks only after the broker accepted the message
// into the topic's bounded in-flight window.
type Server struct {
	broker *broker.Broker
	ln     net.Listener
	log    *slog.Logger
	tracer *trace.Recorder // nil disables flight recording
	// forwarder, when non-nil, replicates client publishes to mesh peers
	// (see forward.go). FORWARD frames bypass it by design.
	forwarder Forwarder

	// forwardsIn counts FORWARD frames applied locally.
	forwardsIn atomic.Uint64

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool

	// dedupe suppresses redelivered publishes from reconnecting
	// publishers (see dedupe.go). Server-wide: retries arrive on new
	// connections.
	dedupe     pubDedup
	duplicates atomic.Uint64
	nextConnID atomic.Uint64
	accepted   atomic.Uint64

	// counters aggregate the wire path's frame/byte/syscall activity
	// across connections (see egress.go); exported by WireStats.
	counters wireCounters

	wg sync.WaitGroup
}

// WireStats is a snapshot of the server's aggregate wire-path counters.
// The syscall counts against the frame counts quantify the coalescing the
// ingress window and egress queue achieve; WriteNanos over FramesOut is a
// direct, per-frame measure of the transmit syscall cost that the paper's
// t_tx constant had to absorb unobserved.
type WireStats struct {
	// FramesIn / BytesIn / ReadCalls count inbound frames, payload+prologue
	// bytes, and Read syscalls on connection sockets.
	FramesIn  uint64
	BytesIn   uint64
	ReadCalls uint64
	// FramesOut / BytesOut / WriteCalls / WriteNanos count outbound frames,
	// bytes, vectored write syscalls, and the wall time spent inside them.
	FramesOut  uint64
	BytesOut   uint64
	WriteCalls uint64
	WriteNanos uint64
}

// WireStats returns a snapshot of the aggregate wire-path counters.
func (s *Server) WireStats() WireStats {
	return WireStats{
		FramesIn:   s.counters.framesIn.Load(),
		BytesIn:    s.counters.bytesIn.Load(),
		ReadCalls:  s.counters.readCalls.Load(),
		FramesOut:  s.counters.framesOut.Load(),
		BytesOut:   s.counters.bytesOut.Load(),
		WriteCalls: s.counters.writeCalls.Load(),
		WriteNanos: s.counters.writeNanos.Load(),
	}
}

// ServeOptions configure optional server behaviour.
type ServeOptions struct {
	// Logger receives structured connection-lifecycle and error events
	// (connection IDs, topics, reasons). Nil disables logging.
	Logger *slog.Logger
	// Tracer, when non-nil, is the per-message flight recorder: the wire
	// layer records frame-ingress, arena-decode, delivery-encode and
	// egress spans for head-sampled messages (by TraceID hash). Use the
	// same recorder in broker.Options.Tracer so one trace spans both
	// layers.
	Tracer *trace.Recorder
	// Forwarder, when non-nil, replicates client publishes to mesh peers
	// (see forward.go): it is consulted at PUBLISH/BATCH ingress and
	// decides whether the message is also published locally. FORWARD
	// frames received from peers never reach it.
	Forwarder Forwarder
}

// Serve starts accepting connections on ln and serving b. It returns
// immediately; use Close to stop.
func Serve(b *broker.Broker, ln net.Listener) *Server {
	return ServeWith(b, ln, ServeOptions{})
}

// ServeWith is Serve with explicit options.
func ServeWith(b *broker.Broker, ln net.Listener, opts ServeOptions) *Server {
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Server{
		broker:    b,
		ln:        ln,
		log:       logger,
		tracer:    opts.Tracer,
		forwarder: opts.Forwarder,
		conns:     make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listener address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// DuplicatesSuppressed reports how many redelivered publishes the dedupe
// table acknowledged without publishing again.
func (s *Server) DuplicatesSuppressed() uint64 { return s.duplicates.Load() }

// OpenConns returns the number of currently open client connections.
func (s *Server) OpenConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// AcceptedConns returns the total number of connections accepted.
func (s *Server) AcceptedConns() uint64 { return s.accepted.Load() }

// ForwardsIn reports how many FORWARD frames from mesh peers this server
// has applied to its local broker.
func (s *Server) ForwardsIn() uint64 { return s.forwardsIn.Load() }

// Close stops the listener and all connections and waits for the handler
// goroutines to exit. It does not close the underlying broker.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errors.New("wire: server already closed")
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	err := s.ln.Close()
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()

		s.accepted.Add(1)
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// serverConn is the per-connection state.
type serverConn struct {
	server *Server
	conn   net.Conn
	id     uint64
	log    *slog.Logger
	done   chan struct{}

	// w is the connection's coalescing egress queue (egress.go); every
	// outbound frame — control replies and the pump's deliveries — goes
	// through it.
	w *connWriter
	// out is the broker-side queue all of this connection's subscriptions
	// deliver to, drained by deliveryPump; pumpDone is closed when the pump
	// has exited. pumpMu is held by the pump from taking deliveries off out
	// until they are recorded in the unacked tables, by SUBSCRIBE until its
	// reply is queued, and by finish, so no subscription is finished while
	// one of its deliveries is neither queued nor recorded.
	out      *broker.Outbox
	pumpMu   sync.Mutex
	pumpDone chan struct{}
	// arena materializes inbound publishes from payload views; owned by
	// the read loop (arenas are not concurrency-safe).
	arena *MessageArena
	// frameStartNs/frameReadNs bracket the current frame's FrameReader
	// read (entering fr.Next → frame buffered); set per iteration by the
	// read loop when flight recording is on, read by handleFrame to
	// record the ingress span of sampled publishes.
	frameStartNs int64
	frameReadNs  int64

	// parked is the FIFO of client publishes whose forwards are still
	// outstanding (see forward.go); the read loop appends, commitLoop
	// finishes them in arrival order. Nil — no goroutine, no channel —
	// until the connection's first forwarded publish. nParked counts the
	// entries not yet finished; committed is closed when commitLoop exits.
	parked    chan parkedPublish
	nParked   atomic.Int32
	committed chan struct{}

	subMu sync.Mutex
	subs  map[uint64]*connSub
	// nextSubID allocates connection-local subscription IDs; broker IDs
	// are not used on the wire because durable consumer handles have none.
	nextSubID uint64
}

type connSub struct {
	id  uint64
	sub *broker.Subscriber
	// closed is set once the subscription is finished on this connection;
	// the pump drops what is still queued for it.
	closed atomic.Bool

	// Acked-delivery state. The pump records a delivery in unacked
	// (keyed by its sequence number) before writing the frame; MSG_ACK
	// deletes it; whatever remains at teardown is requeued.
	acked   bool
	ackMu   sync.Mutex
	nextSeq uint64
	unacked map[uint64]*jms.Message
}

// takeUnacked removes and returns the unacked deliveries in delivery
// order. Call with the connection's pumpMu held.
func (cs *connSub) takeUnacked() []*jms.Message {
	cs.ackMu.Lock()
	defer cs.ackMu.Unlock()
	if len(cs.unacked) == 0 {
		return nil
	}
	seqs := make([]uint64, 0, len(cs.unacked))
	for seq := range cs.unacked {
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	msgs := make([]*jms.Message, len(seqs))
	for i, seq := range seqs {
		msgs[i] = cs.unacked[seq]
	}
	cs.unacked = nil
	return msgs
}

// record allocates the next delivery sequence of an acked subscription and
// enters m in its unacked table; other subscriptions have no sequence (0).
func (cs *connSub) record(m *jms.Message) uint64 {
	if !cs.acked {
		return 0
	}
	cs.ackMu.Lock()
	defer cs.ackMu.Unlock()
	cs.nextSeq++
	cs.unacked[cs.nextSeq] = m
	return cs.nextSeq
}

// finish releases a subscription of this connection, requeueing the
// unacked deliveries of an acked one. It holds pumpMu, so every delivery
// the pump took is in the unacked table by now, and a durable consumer's
// detach takes back whatever is still queued in the outbox.
func (sc *serverConn) finish(cs *connSub) error {
	sc.pumpMu.Lock()
	defer sc.pumpMu.Unlock()
	cs.closed.Store(true)
	if cs.acked {
		return cs.sub.UnsubscribeRequeue(cs.takeUnacked())
	}
	return cs.sub.Unsubscribe()
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	id := s.nextConnID.Add(1)
	sc := &serverConn{
		server:   s,
		conn:     conn,
		id:       id,
		log:      s.log.With("conn", id),
		done:     make(chan struct{}),
		w:        newConnWriter(conn, &s.counters, s.tracer),
		out:      s.broker.NewOutbox(),
		pumpDone: make(chan struct{}),
		arena:    NewMessageArena(),
		subs:     make(map[uint64]*connSub),
	}
	sc.log.Debug("connection accepted", "remote", conn.RemoteAddr().String())
	go sc.deliveryPump()
	sc.readLoop()
	close(sc.done)
	// Close the connection before waiting for the pump: it may be blocked
	// mid-write on the dead peer.
	_ = conn.Close()
	<-sc.pumpDone

	// Tear down this connection's subscriptions. Non-durable mode: a
	// disconnected subscriber is forgotten. Durable subscriptions: what is
	// still queued for them, and on an acked one what was written but never
	// acknowledged, goes back to the backlog, so a reconnecting consumer
	// sees it again instead of losing it. This comes before the parked
	// publishes, which may be waiting for room in this connection's outbox.
	sc.subMu.Lock()
	subs := make([]*connSub, 0, len(sc.subs))
	for _, cs := range sc.subs {
		subs = append(subs, cs)
	}
	sc.subs = nil
	sc.subMu.Unlock()
	for _, cs := range subs {
		_ = sc.finish(cs)
	}
	// Every parked publish is committed or rejected, none abandoned.
	sc.drainParked()
	// All producers (the pump, this read loop, commitLoop) are done; stop
	// the writer.
	sc.w.close()
	sc.log.Debug("connection closed", "subscriptions", len(subs))

	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// write queues one frame on the connection's egress writer. The write
// itself happens asynchronously, coalesced with whatever else is queued; a
// write failure closes the connection, which this read loop observes as a
// read error.
func (sc *serverConn) write(f Frame) error {
	bp, err := frameBuffer(f)
	if err != nil {
		return err
	}
	return sc.w.submit(bp)
}

// writeU64 queues a frame whose payload is one u64 — PUB_ACK and the other
// replies that carry only their request ID — built straight into a pooled
// buffer, with no payload slice of its own to copy from.
func (sc *serverConn) writeU64(typ FrameType, v uint64) error {
	bp := GetBuffer()
	buf := binary.BigEndian.AppendUint32((*bp)[:0], 8)
	*bp = binary.BigEndian.AppendUint64(append(buf, byte(typ)), v)
	return sc.w.submit(bp)
}

func (sc *serverConn) writeErr(reqID uint64, err error) {
	sc.log.Debug("request failed", "req", reqID, "reason", err.Error())
	_ = sc.write(Frame{Type: FrameError, Payload: EncodeError(reqID, err.Error())})
}

func (sc *serverConn) readLoop() {
	fr := NewFrameReader(sc.conn)
	var lastReads, lastBytes uint64
	c := &sc.server.counters
	tr := sc.server.tracer
	for {
		if tr != nil {
			sc.frameStartNs = time.Now().UnixNano()
		}
		f, err := fr.Next()
		if err != nil {
			return // io.EOF or closed connection
		}
		if tr != nil {
			sc.frameReadNs = time.Now().UnixNano()
		}
		reads, bytes := fr.Stats()
		c.framesIn.Add(1)
		c.readCalls.Add(reads - lastReads)
		c.bytesIn.Add(bytes - lastBytes)
		lastReads, lastBytes = reads, bytes
		// f.Payload views the reader's window and is only valid for this
		// iteration; handleFrame materializes whatever outlives the frame.
		if err := sc.handleFrame(f); err != nil {
			return
		}
	}
}

func (sc *serverConn) handleFrame(f Frame) error {
	d := decoder{buf: f.Payload}
	reqID, err := d.u64()
	if err != nil && f.Type != FramePing {
		return err
	}
	rest := f.Payload[d.off:]

	switch f.Type {
	case FramePing:
		// A PING with a request ID gets it echoed, so a client can wait
		// for its own PONG; one without gets an empty PONG.
		if err != nil {
			return sc.write(Frame{Type: FramePong})
		}
		return sc.writeU64(FramePong, reqID)

	case FrameConfigureTopic:
		sc.drainParked()
		name, err := DecodeString(rest)
		if err != nil {
			return err
		}
		if err := sc.server.broker.ConfigureTopic(name); err != nil {
			sc.writeErr(reqID, err)
			return nil
		}
		return sc.writeU64(FrameConfigureTopicOK, reqID)

	case FramePublish:
		return sc.handlePublishBody(reqID, rest, true)

	case FrameBatch:
		return sc.handleBatchBody(reqID, rest, true)

	case FrameForward:
		// A peer replicated a publish here. Apply it locally exactly like
		// the client frame it wraps, but never consult the forwarder —
		// forwards are terminal, which suppresses loops structurally.
		h, inner, err := DecodeForward(rest)
		if err != nil {
			return err
		}
		sc.server.forwardsIn.Add(1)
		if h.Batch {
			return sc.handleBatchBody(reqID, inner, false)
		}
		return sc.handlePublishBody(reqID, inner, false)

	case FrameSubscribe:
		sc.drainParked()
		topicName, spec, err := DecodeSubscribe(rest)
		if err != nil {
			return err
		}
		flt, err := spec.Filter()
		if err != nil {
			sc.writeErr(reqID, err)
			return nil
		}
		// The pump holds off until SUBSCRIBE_OK is queued, so no delivery —
		// a durable backlog replays at once — reaches the client before the
		// subscription's ID does.
		sc.pumpMu.Lock()
		defer sc.pumpMu.Unlock()
		sc.nextSubID++
		cs := &connSub{id: sc.nextSubID, acked: spec.Acked}
		if cs.acked {
			cs.unacked = make(map[uint64]*jms.Message)
		}
		if spec.DurableName != "" {
			cs.sub, err = sc.out.SubscribeDurable(topicName, spec.DurableName, flt, broker.DurableOptions{}, cs)
		} else {
			cs.sub, err = sc.out.Subscribe(topicName, flt, cs)
		}
		if err != nil {
			sc.writeErr(reqID, err)
			return nil
		}
		sc.subMu.Lock()
		sc.subs[cs.id] = cs
		sc.subMu.Unlock()
		sc.log.Debug("subscribed", "sub", cs.id, "topic", topicName,
			"durable", spec.DurableName, "acked", spec.Acked)

		var e encoder
		e.u64(reqID)
		e.u64(cs.id)
		return sc.write(Frame{Type: FrameSubscribeOK, Payload: e.buf})

	case FrameUnsubscribe:
		sc.drainParked()
		subID, err := DecodeU64(rest)
		if err != nil {
			return err
		}
		sc.subMu.Lock()
		cs, ok := sc.subs[subID]
		if ok {
			delete(sc.subs, subID)
		}
		sc.subMu.Unlock()
		if !ok {
			sc.writeErr(reqID, fmt.Errorf("wire: unknown subscription %d", subID))
			return nil
		}
		if err := sc.finish(cs); err != nil {
			sc.writeErr(reqID, err)
			return nil
		}
		sc.log.Debug("unsubscribed", "sub", subID)
		return sc.writeU64(FrameUnsubscribeOK, reqID)

	case FrameMsgAck:
		// No request ID, no reply: the payload is (subID, seq).
		subID, seq, err := DecodeAck(f.Payload)
		if err != nil {
			return err
		}
		sc.subMu.Lock()
		cs := sc.subs[subID]
		sc.subMu.Unlock()
		if cs != nil && cs.acked {
			cs.ackMu.Lock()
			delete(cs.unacked, seq)
			cs.ackMu.Unlock()
		}
		return nil

	case FrameDeleteDurable:
		sc.drainParked()
		d := decoder{buf: rest}
		topicName, err := d.str()
		if err != nil {
			return err
		}
		name, err := d.str()
		if err != nil {
			return err
		}
		if err := sc.server.broker.UnsubscribeDurable(topicName, name); err != nil {
			sc.writeErr(reqID, err)
			return nil
		}
		return sc.writeU64(FrameDeleteDurableOK, reqID)

	default:
		sc.writeErr(reqID, fmt.Errorf("wire: unexpected frame %s", f.Type))
		return nil
	}
}

// handlePublishBody applies one encoded message body (a PUBLISH payload
// after its request ID, or a FORWARD frame's inner bytes). fromClient
// selects the mesh ingress: client publishes are offered to the
// configured Forwarder, which may replicate them to peers and veto the
// local publish; forwarded publishes are always applied locally only.
func (sc *serverConn) handlePublishBody(reqID uint64, body []byte, fromClient bool) error {
	// Materialize through the connection arena: the payload is a view
	// into the read window, so the message must own its bytes before
	// the next frame is read.
	m, err := sc.arena.DecodeMessageArena(body)
	if err != nil {
		return err
	}
	if tr := sc.server.tracer; tr != nil && tr.Sampled(m.Header.TraceID) {
		// ingress is the FrameReader read (it includes the socket wait
		// for the publisher's bytes — arrival-side, reported but not
		// part of the sojourn decomposition); decode is the arena
		// materialization just performed.
		decEnd := time.Now().UnixNano()
		tr.RecordSpanNs(m.Header.TraceID, trace.StageIngress, sc.frameStartNs, sc.frameReadNs-sc.frameStartNs)
		tr.RecordSpanNs(m.Header.TraceID, trace.StageDecode, sc.frameReadNs, decEnd-sc.frameReadNs)
	}
	// A publish stamped with a dedupe identity claims its (pub, seq)
	// before it reaches the broker; a redelivery (the publisher resent
	// because the ack was lost in a reconnect) is acknowledged without
	// publishing again — at-least-once retry, effectively-once effect.
	// Duplicates are suppressed before the forwarder sees them, so a
	// retry is not replicated twice either (peer dedupe tables would
	// catch it regardless — the identity is publisher-stamped).
	pub, seq, stamped := pubIdentity(m)
	if stamped && !sc.server.dedupe.record(pub, seq) {
		sc.server.duplicates.Add(1)
		return sc.writeU64(FramePubAck, reqID)
	}
	p := parkedPublish{reqID: reqID, key: sc.publisherKey(pub, stamped), local: true, m: m}
	if fw := sc.server.forwarder; fw != nil && fromClient {
		p.local, p.ack = fw.StartPublish(m, body)
	}
	return sc.admit(p)
}

// handleBatchBody applies one encoded BATCH body (after its request ID, or
// a FORWARD frame's inner bytes). See handlePublishBody for the fromClient
// contract.
func (sc *serverConn) handleBatchBody(reqID uint64, body []byte, fromClient bool) error {
	// Decode into a pooled carrier through the arena: the carrier's
	// message slice and the match-stage scratch travel the pipeline as
	// one unit and the carrier recycles after the batch's last transmit;
	// the messages, carved from the arena's chunks, stay GC-owned.
	var err error
	c := broker.GetBatchCarrier()
	c.Msgs, err = sc.arena.AppendBatchMessages(c.Msgs[:0], body)
	if err != nil {
		c.Release()
		return err
	}
	if tr := sc.server.tracer; tr != nil {
		// Sampled batch members share the frame's ingress/decode cost:
		// each records the full frame read and batch materialization
		// window (one frame carried them all).
		decEnd := time.Now().UnixNano()
		for _, m := range c.Msgs {
			if tr.Sampled(m.Header.TraceID) {
				tr.RecordSpanNs(m.Header.TraceID, trace.StageIngress, sc.frameStartNs, sc.frameReadNs-sc.frameStartNs)
				tr.RecordSpanNs(m.Header.TraceID, trace.StageDecode, sc.frameReadNs, decEnd-sc.frameReadNs)
			}
		}
	}
	// The forwarder sees the batch before dedupe compaction, so the raw
	// bytes and the decoded messages agree; peers suppress any duplicate
	// members with their own dedupe tables.
	p := parkedPublish{reqID: reqID, key: sc.id, local: true, c: c}
	if len(c.Msgs) > 0 {
		pub, _, stamped := pubIdentity(c.Msgs[0])
		p.key = sc.publisherKey(pub, stamped)
	}
	if fw := sc.server.forwarder; fw != nil && fromClient {
		p.local, p.ack = fw.StartBatch(c.Msgs, body)
	}
	// Per-message dedupe: a redelivered batch (its shared ack was lost
	// in a reconnect) may overlap already-claimed sequences. Duplicates
	// are compacted out in place, the fresh remainder is published as
	// one unit, and the single PUB_ACK covers the whole batch either
	// way.
	fresh := c.Msgs[:0]
	for _, m := range c.Msgs {
		if pub, seq, stamped := pubIdentity(m); stamped && !sc.server.dedupe.record(pub, seq) {
			sc.server.duplicates.Add(1)
			continue
		}
		fresh = append(fresh, m)
	}
	c.Msgs = fresh
	return sc.admit(p)
}

// publisherKey is the broker.Publisher key of a publish, which pins it to
// one dispatch worker of its topic: the FNV-1a hash of the publisher
// identity of a stamped publish, so a reliable publisher's retry on a new
// connection queues behind its older messages, and the connection's id
// otherwise.
func (sc *serverConn) publisherKey(pub string, stamped bool) uint64 {
	if !stamped {
		return sc.id
	}
	h := uint64(14695981039346656037)
	for i := 0; i < len(pub); i++ {
		h ^= uint64(pub[i])
		h *= 1099511628211
	}
	return h
}

// forwardWindow bounds how many publishes one connection may have parked
// behind their forwards. A full window blocks the read loop, which is the
// push-back chain of a forwarding server: commitLoop blocked in the broker
// publish → window full → read loop stops reading → TCP throttles the
// publisher.
const forwardWindow = 64

// parkedPublish is one decoded client publish — a single message or a
// batch carrier — with its dedupe sequences claimed, waiting to be
// committed.
type parkedPublish struct {
	reqID uint64
	key   uint64      // the broker.Publisher key, see publisherKey
	ack   *ForwardAck // nil when nothing was forwarded
	local bool        // publish on this broker too
	m     *jms.Message
	c     *broker.BatchCarrier // set instead of m for a batch
}

// admit commits p inline when there is nothing to wait for — no forward of
// its own, nothing parked ahead of it — and parks it otherwise.
func (sc *serverConn) admit(p parkedPublish) error {
	if p.ack == nil && sc.nParked.Load() == 0 {
		return sc.commit(p)
	}
	if sc.parked == nil {
		sc.parked = make(chan parkedPublish, forwardWindow)
		sc.committed = make(chan struct{})
		go sc.commitLoop(sc.parked, sc.committed)
	}
	sc.nParked.Add(1)
	sc.parked <- p
	return nil
}

// commitLoop commits parked publishes in arrival order.
func (sc *serverConn) commitLoop(parked <-chan parkedPublish, committed chan<- struct{}) {
	defer close(committed)
	for p := range parked {
		// Queuing the reply cannot fail here: the egress writer outlives
		// this loop (teardown drains the parked publishes before stopping
		// it) and swallows frames for a dead connection itself.
		_ = sc.commit(p)
		sc.nParked.Add(-1)
	}
}

// drainParked waits until every parked publish has been committed. The
// read loop calls it before a frame that changes subscription state, so
// the effects of one connection's frames stay in the order it sent them,
// and at teardown.
func (sc *serverConn) drainParked() {
	if sc.parked == nil {
		return
	}
	close(sc.parked)
	<-sc.committed
	sc.parked = nil
}

// commit finishes one admitted publish: wait for its forwards, publish it
// locally if it is to be, and reply. A failed forward or a refused publish
// rejects it — ERROR reply, nothing published here, its dedupe claims
// released so a retry is not swallowed as a duplicate.
func (sc *serverConn) commit(p parkedPublish) error {
	err := p.ack.Wait()
	published := false
	if err == nil && p.local {
		// The blocking publish implements push-back: the ack is delayed
		// while the worker's window is full, which throttles the publisher.
		pub := sc.server.broker.Publisher(p.key)
		if p.c != nil {
			err = pub.PublishBatchCarrier(context.Background(), p.c)
		} else {
			err = pub.Publish(context.Background(), p.m)
		}
		published = err == nil
	}
	if err != nil {
		if p.c != nil {
			for _, m := range p.c.Msgs {
				sc.server.unclaim(m)
			}
		} else {
			sc.server.unclaim(p.m)
		}
	}
	// A published carrier belongs to the broker; otherwise it is still ours.
	if p.c != nil && !published {
		p.c.Release()
	}
	if err != nil {
		sc.writeErr(p.reqID, err)
		return nil
	}
	return sc.writeU64(FramePubAck, p.reqID)
}

// unclaim releases the dedupe sequence m claimed at ingress, if it is stamped.
func (s *Server) unclaim(m *jms.Message) {
	if pub, seq, ok := pubIdentity(m); ok {
		s.dedupe.unrecord(pub, seq)
	}
}

// deliveryCoalesce bounds how many queued deliveries one pump iteration
// takes off the outbox (more only to finish the last message's run), so
// the pump looks at the connection's state between bursts. 16 matches the
// default batch size the publish side is tuned for.
const deliveryCoalesce = 16

// fanoutMaxRefs bounds the subscriptions one MESSAGE_FANOUT frame names, so
// its head stays within a pooled buffer; a longer run goes out as several
// frames. writeDelivery splits further where the head would push the frame
// past MaxFrameSize.
const fanoutMaxRefs = 1 << 11

// pumpSend is one frame the pump staged: m for the subscriptions
// refs[lo:hi], or, when m is nil, the SUB_CLOSED notice for cs.
type pumpSend struct {
	m      *jms.Message
	cs     *connSub
	lo, hi int
}

// deliveryPump is the connection's one delivery goroutine. It drains the
// outbox all of the connection's subscriptions deliver to and sends each
// message once per connection: its deliveries to several subscriptions go
// out as one MESSAGE_FANOUT frame naming them all, a single delivery as a
// MESSAGE frame. It exits once the connection is closed, and closes it when
// a frame cannot be sent, since nothing else would deliver to the
// connection's subscriptions: handleConn's teardown then finishes them.
func (sc *serverConn) deliveryPump() {
	defer close(sc.pumpDone)
	var (
		batch []broker.Delivery
		refs  []DeliveryRef
		sends []pumpSend
	)
	for {
		select {
		case <-sc.done:
			return
		default:
		}
		sc.pumpMu.Lock()
		batch = sc.out.Take(batch[:0], deliveryCoalesce)
		refs, sends = stageDeliveries(batch, refs[:0], sends[:0])
		sc.pumpMu.Unlock()
		if len(batch) == 0 {
			select {
			case <-sc.out.Ready():
			case <-sc.done:
				return
			}
			continue
		}
		for _, s := range sends {
			if err := sc.send(s, refs); err != nil {
				sc.log.Warn("delivery failed; closing connection", "err", err)
				_ = sc.conn.Close()
				return
			}
		}
		// Neither scratch slice may keep a message alive while the pump idles.
		clear(batch)
		clear(sends)
	}
}

// stageDeliveries turns deliveries taken off the outbox into the frames
// that carry them: consecutive deliveries of one message share a frame,
// deliveries to a subscription finished here are dropped, and on an acked
// subscription each delivery gets its sequence number and is recorded in
// the unacked table before its frame is queued, so a connection cut
// between write and ack leaves the message recoverable.
func stageDeliveries(batch []broker.Delivery, refs []DeliveryRef, sends []pumpSend) ([]DeliveryRef, []pumpSend) {
	for _, d := range batch {
		cs := d.Sub.Tag().(*connSub)
		if d.Msg == nil {
			sends = append(sends, pumpSend{cs: cs})
			continue
		}
		if cs.closed.Load() {
			continue
		}
		if n := len(sends); n > 0 && sends[n-1].m == d.Msg && sends[n-1].hi-sends[n-1].lo < fanoutMaxRefs {
			sends[n-1].hi++
		} else {
			sends = append(sends, pumpSend{m: d.Msg, lo: len(refs), hi: len(refs) + 1})
		}
		refs = append(refs, DeliveryRef{SubID: cs.id, Seq: cs.record(d.Msg)})
	}
	return refs, sends
}

// send queues one staged frame. A SUB_CLOSED notice means the broker ended
// the subscription (the disconnect slow-consumer policy) after every
// delivery queued before it, which are out by now. Its entry is dropped
// first, so a later UNSUBSCRIBE reports an unknown subscription instead of
// finishing one the broker already removed.
func (sc *serverConn) send(s pumpSend, refs []DeliveryRef) error {
	if s.m != nil {
		return sc.writeDelivery(refs[s.lo:s.hi], s.m)
	}
	s.cs.closed.Store(true)
	sc.subMu.Lock()
	if sc.subs != nil {
		delete(sc.subs, s.cs.id)
	}
	sc.subMu.Unlock()
	sc.log.Debug("subscription closed by broker", "sub", s.cs.id, "reason", "slow-consumer")
	return sc.write(Frame{Type: FrameSubClosed, Payload: EncodeSubClosed(s.cs.id, "slow-consumer")})
}

// writeDelivery encodes one delivery frame into a pooled buffer — prologue
// and payload together, so the delivery fast path allocates nothing in
// steady state — and hands it to the connection writer: a MESSAGE frame for
// one subscription, a MESSAGE_FANOUT frame for several. A body of
// bodyByRefMin bytes or more is not copied: the buffer ends at the body's
// length field and the writer gathers m.Body itself behind it, the same
// bytes every replica of the message already shares (see connWriter for why
// that is safe). The bytes on the wire are the same either way.
func (sc *serverConn) writeDelivery(refs []DeliveryRef, m *jms.Message) error {
	tr := sc.server.tracer
	traced := tr.Sampled(m.Header.TraceID)
	var t0 int64
	if traced {
		t0 = time.Now().UnixNano()
	}
	bp := GetBuffer()
	buf := (*bp)[:0]
	if len(refs) == 1 {
		buf = appendDeliveryHead(append(buf, 0, 0, 0, 0, byte(FrameMessage)), refs[0].SubID, refs[0].Seq, m)
	} else {
		buf = appendFanoutHead(append(buf, 0, 0, 0, 0, byte(FrameFanout)), refs, m)
	}
	var tail []byte
	if len(m.Body) >= bodyByRefMin {
		tail = m.Body
	} else {
		buf = append(buf, m.Body...)
	}
	*bp = buf
	size := len(buf) - prologueSize + len(tail)
	if size > MaxFrameSize {
		PutBuffer(bp)
		if len(refs) == 1 {
			return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
		}
		// The refs push the frame past the limit: split them over frames
		// that fit, down to one MESSAGE frame per subscription.
		msgLen := size - 4 - 16*len(refs)
		per := max(1, (MaxFrameSize-4-msgLen)/16)
		for lo := 0; lo < len(refs); lo += per {
			if err := sc.writeDelivery(refs[lo:min(lo+per, len(refs))], m); err != nil {
				return err
			}
		}
		return nil
	}
	binary.BigEndian.PutUint32(buf[:4], uint32(size))
	ef := egressFrame{bp: bp, tail: tail}
	if traced {
		// The end of the encode span is the frame's enqueue instant: the
		// writer records egress_queue and egress_write from it.
		ef.traceID, ef.enqNs = m.Header.TraceID, time.Now().UnixNano()
		tr.RecordSpanNs(ef.traceID, trace.StageEncode, t0, ef.enqNs-t0)
	}
	return sc.w.submitFrame(ef)
}

// Filter constructs the broker filter a SUBSCRIBE with this spec installs.
func (spec FilterSpec) Filter() (filter.Filter, error) {
	switch spec.Mode {
	case FilterNone:
		return filter.All{}, nil
	case FilterCorrelationID:
		return filter.NewCorrelationID(spec.Expr)
	case FilterSelector:
		return filter.NewProperty(spec.Expr)
	default:
		return nil, fmt.Errorf("wire: unknown filter mode %d", spec.Mode)
	}
}
