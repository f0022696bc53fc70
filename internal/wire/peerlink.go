package wire

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the sending side of the mesh forward hop: PeerLink, one
// lazily-dialed connection to a peer server that carries a window of
// FORWARD frames, and ForwardAck, the countdown a publish waits on until
// the last of its forwards is acked. The link is built from the same parts
// as a served connection — a connWriter batches FORWARD frames into
// vectored writes, a FrameReader drains the acks — so forwards of
// successive publishes share syscalls in both directions.

// errLinkClosed fails forwards on a link that was closed for good.
var errLinkClosed = errors.New("wire: peer link closed")

// ForwardAck is the completion handle of one publish's forwards. It counts
// down as each FORWARD frame is acked or fails; Wait returns once the last
// one has, with the first failure if there was any. Handles are pooled:
// Wait recycles the handle, so it is called exactly once and the handle is
// dead afterwards.
type ForwardAck struct {
	left atomic.Int32
	mu   sync.Mutex // guards err against concurrent failing forwards
	err  error
	done chan struct{} // capacity 1: one signal per use, sent by the last completion
}

var forwardAckPool = sync.Pool{New: func() any { return &ForwardAck{done: make(chan struct{}, 1)} }}

// NewForwardAck returns a handle that completes after n forwards have.
func NewForwardAck(n int) *ForwardAck {
	a := forwardAckPool.Get().(*ForwardAck)
	a.left.Store(int32(n))
	return a
}

// complete records the outcome of one forward.
func (a *ForwardAck) complete(err error) {
	if err != nil {
		a.mu.Lock()
		if a.err == nil {
			a.err = err
		}
		a.mu.Unlock()
	}
	if a.left.Add(-1) == 0 {
		a.done <- struct{}{}
	}
}

// Wait blocks until every forward has completed and reports the first
// failure. A nil handle — nothing was forwarded — returns nil at once.
func (a *ForwardAck) Wait() error {
	if a == nil {
		return nil
	}
	<-a.done
	err := a.err
	a.err = nil
	forwardAckPool.Put(a)
	return err
}

// PeerLinkStats is a snapshot of one link's counters.
type PeerLinkStats struct {
	// Acked counts FORWARD frames the peer acked.
	Acked uint64
	// Failed counts forwards that failed: dial, write, peer error, ack
	// timeout, link closed.
	Failed uint64
	// Reconnects counts re-dials after an established connection broke.
	Reconnects uint64
	// Inflight is the number of FORWARD frames sent and not yet acked or
	// failed — the occupancy of the forward window.
	Inflight int64
}

// PeerLink forwards publishes to one mesh peer. Forward never waits for
// the peer: it queues the frame and returns, and the outcome arrives on
// the ForwardAck. Forwards submitted by one goroutine leave in submission
// order on one TCP connection, which is what keeps a publisher's order
// intact on the peer. The connection is dialed on first use and re-dialed
// after a failure; every forward outstanding on a broken connection fails.
type PeerLink struct {
	addr        string
	origin      uint32
	dialTimeout time.Duration
	ackTimeout  time.Duration

	// dialCtx is cancelled by Close so a pending dial does not hold its
	// callers for the rest of dialTimeout.
	dialCtx    context.Context
	cancelDial context.CancelFunc

	mu            sync.Mutex
	sess          *peerSession // nil while disconnected
	dial          *dialFlight  // non-nil while a dial is in progress
	everConnected bool
	closed        bool

	acked      atomic.Uint64
	failed     atomic.Uint64
	reconnects atomic.Uint64
	inflight   atomic.Int64
}

// dialFlight is one in-progress dial; forwards that find it wait for its
// result instead of dialing again.
type dialFlight struct {
	done chan struct{}
	sess *peerSession
	err  error
}

// NewPeerLink returns a link to the server at addr. origin is the mesh
// index stamped into every FORWARD header; ackTimeout bounds how long a
// forward may stay unacked before the connection is declared dead.
func NewPeerLink(addr string, origin uint32, dialTimeout, ackTimeout time.Duration) *PeerLink {
	l := &PeerLink{addr: addr, origin: origin, dialTimeout: dialTimeout, ackTimeout: ackTimeout}
	l.dialCtx, l.cancelDial = context.WithCancel(context.Background())
	return l
}

// Stats returns a snapshot of the link's counters.
func (l *PeerLink) Stats() PeerLinkStats {
	return PeerLinkStats{
		Acked:      l.acked.Load(),
		Failed:     l.failed.Load(),
		Reconnects: l.reconnects.Load(),
		Inflight:   l.inflight.Load(),
	}
}

// Forward queues one FORWARD frame wrapping inner (a PUBLISH body, or a
// BATCH body when batch is set) and returns; ack completes once the peer
// answered or the forward failed. inner is copied before Forward returns.
func (l *PeerLink) Forward(ack *ForwardAck, batch bool, inner []byte) {
	if err := l.forward(ack, batch, inner); err != nil {
		l.failed.Add(1)
		ack.complete(err)
	}
}

// forward reports only failures that happen before the forward joins a
// session's window; later ones reach ack through the session.
func (l *PeerLink) forward(ack *ForwardAck, batch bool, inner []byte) error {
	if 8+forwardHeaderSize+len(inner) > MaxFrameSize {
		return fmt.Errorf("wire: forward to %s: %w", l.addr, ErrFrameTooLarge)
	}
	s, err := l.session()
	if err != nil {
		return err
	}
	req, err := s.admit(ack)
	if err != nil {
		return err
	}
	b, err := s.w.begin()
	if err != nil {
		return nil // the session is closing; its sweep completes the forward
	}
	start := b.open(FrameForward)
	b.buf = binary.BigEndian.AppendUint64(b.buf, req)
	b.buf = AppendForward(b.buf, ForwardHeader{Origin: l.origin, Hops: 1, Batch: batch}, inner)
	_, _ = b.seal(start) // checked against MaxFrameSize above
	s.w.end()
	return nil
}

// session returns the live session, dialing if there is none. The dial runs
// outside l.mu — completions, failure sweeps and Close never wait for it —
// and is single-flight: concurrent forwards share one attempt and its result.
func (l *PeerLink) session() (*peerSession, error) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil, errLinkClosed
	}
	if s := l.sess; s != nil {
		l.mu.Unlock()
		return s, nil
	}
	if f := l.dial; f != nil {
		l.mu.Unlock()
		<-f.done
		return f.sess, f.err
	}
	f := &dialFlight{done: make(chan struct{})}
	l.dial = f
	l.mu.Unlock()

	d := net.Dialer{Timeout: l.dialTimeout}
	conn, err := d.DialContext(l.dialCtx, "tcp", l.addr)

	l.mu.Lock()
	l.dial = nil
	switch {
	case err != nil:
		f.err = fmt.Errorf("wire: dial peer %s: %w", l.addr, err)
	case l.closed:
		_ = conn.Close()
		f.err = errLinkClosed
	default:
		if l.everConnected {
			l.reconnects.Add(1)
		}
		l.everConnected = true
		f.sess = newPeerSession(l, conn)
		l.sess = f.sess
	}
	l.mu.Unlock()
	close(f.done)
	return f.sess, f.err
}

// Close shuts the link down for good: outstanding and later forwards fail,
// a pending dial is abandoned, and the session's goroutines have exited
// when it returns.
func (l *PeerLink) Close() {
	l.mu.Lock()
	l.closed = true
	s := l.sess
	l.mu.Unlock()
	l.cancelDial()
	if s != nil {
		s.fail(errLinkClosed)
		<-s.done
	}
}

// outstandingForward is one slot of a session's window.
type outstandingForward struct {
	ack  *ForwardAck // nil once answered
	sent time.Time
}

// peerSession is one established connection of a link: the coalescing
// writer, the ack reader and the window of forwards sent and not yet
// answered. Request IDs are consecutive in window order, so the slot of a
// reply is its ID's distance from the head's; replies may overtake one
// another (concurrent forwarders reach the writer in any order).
type peerSession struct {
	link *PeerLink
	conn net.Conn
	w    *connWriter

	mu      sync.Mutex
	window  []outstandingForward // window[head:] is live, oldest first
	head    int
	headReq uint64 // request ID of window[head]
	dead    bool

	deadCh chan struct{} // closed by fail
	done   chan struct{} // closed when run has returned
}

func newPeerSession(l *PeerLink, conn net.Conn) *peerSession {
	s := &peerSession{
		link:    l,
		conn:    conn,
		w:       newConnWriter(conn, new(wireCounters), nil),
		headReq: 1,
		deadCh:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	go s.run()
	return s
}

// admit appends a forward to the window and returns its request ID.
func (s *peerSession) admit(ack *ForwardAck) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return 0, fmt.Errorf("wire: forward to %s: connection lost", s.link.addr)
	}
	if s.head > 0 && s.head == len(s.window) {
		s.window, s.head = s.window[:0], 0
	} else if s.head >= 64 && s.head*2 >= len(s.window) {
		// Never empty under load: slide the live half down so the slice
		// stays bounded by twice the window instead of growing forever.
		n := copy(s.window, s.window[s.head:])
		clear(s.window[n:])
		s.window, s.head = s.window[:n], 0
	}
	s.window = append(s.window, outstandingForward{ack: ack, sent: time.Now()})
	s.link.inflight.Add(1)
	return s.headReq + uint64(len(s.window)-s.head-1), nil
}

// answer resolves the forward with request ID req and reports whether
// there was one outstanding.
func (s *peerSession) answer(req uint64, err error) bool {
	s.mu.Lock()
	i := req - s.headReq
	if s.dead || i >= uint64(len(s.window)-s.head) || s.window[s.head+int(i)].ack == nil {
		s.mu.Unlock()
		return false
	}
	ack := s.window[s.head+int(i)].ack
	s.window[s.head+int(i)].ack = nil
	for s.head < len(s.window) && s.window[s.head].ack == nil {
		s.head++
		s.headReq++
	}
	s.mu.Unlock()

	s.link.inflight.Add(-1)
	if err != nil {
		s.link.failed.Add(1)
	} else {
		s.link.acked.Add(1)
	}
	ack.complete(err)
	return true
}

// fail ends the session: the connection closes, the link forgets it (the
// next forward re-dials) and every outstanding forward fails with err.
func (s *peerSession) fail(err error) {
	s.mu.Lock()
	if s.dead {
		s.mu.Unlock()
		return
	}
	s.dead = true
	swept := s.window[s.head:]
	s.window = nil
	s.mu.Unlock()

	close(s.deadCh)
	_ = s.conn.Close()
	l := s.link
	l.mu.Lock()
	if l.sess == s {
		l.sess = nil
	}
	l.mu.Unlock()
	for _, o := range swept {
		if o.ack != nil {
			l.inflight.Add(-1)
			l.failed.Add(1)
			o.ack.complete(err)
		}
	}
}

// run owns the session's goroutines: it reads acks until the connection
// fails, then tears the session down and waits for the watchdog and the
// writer.
func (s *peerSession) run() {
	defer close(s.done)
	watched := make(chan struct{})
	go func() {
		defer close(watched)
		s.watch()
	}()
	s.fail(s.readAcks())
	s.w.close()
	<-watched
}

// readAcks resolves forwards from the peer's replies until the connection
// fails or the peer breaks the protocol.
func (s *peerSession) readAcks() error {
	fr := NewFrameReader(s.conn)
	for {
		f, err := fr.Next()
		if err != nil {
			return fmt.Errorf("wire: forward to %s: %w", s.link.addr, err)
		}
		var req uint64
		var rejected error
		switch f.Type {
		case FramePubAck:
			req, err = DecodeU64(f.Payload)
		case FrameError:
			var msg string
			req, msg, err = DecodeError(f.Payload)
			rejected = fmt.Errorf("wire: peer %s rejected forward: %s", s.link.addr, msg)
		default:
			err = fmt.Errorf("unexpected %v", f.Type)
		}
		if err == nil && !s.answer(req, rejected) {
			err = fmt.Errorf("reply to unknown request %d", req)
		}
		if err != nil {
			return fmt.Errorf("wire: peer %s broke the forward protocol: %w", s.link.addr, err)
		}
	}
}

// watch is the session's one deadline watchdog: it sleeps until the oldest
// outstanding forward would time out and fails the session if that forward
// is still unanswered then. An idle session is checked once per ackTimeout,
// which cannot miss a deadline: a forward sent after a check expires no
// sooner than ackTimeout after it.
func (s *peerSession) watch() {
	timeout := s.link.ackTimeout
	t := time.NewTimer(timeout)
	defer t.Stop()
	for {
		select {
		case <-s.deadCh:
			return
		case <-t.C:
		}
		wait := timeout
		s.mu.Lock()
		if s.head < len(s.window) {
			wait = time.Until(s.window[s.head].sent.Add(timeout))
		}
		s.mu.Unlock()
		if wait <= 0 {
			s.fail(fmt.Errorf("wire: peer %s ack timeout after %s", s.link.addr, timeout))
			return
		}
		t.Reset(wait)
	}
}
