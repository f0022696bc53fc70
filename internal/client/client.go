// Package client provides the JMS-flavoured client API used by publishers
// and subscribers: connect to a broker over TCP, publish messages with
// acknowledgement-based push-back, and subscribe with a filter.
//
// Test clients in the paper are "derived from Fiorano's example Java
// sources": each publisher or subscriber holds an exclusive connection to
// the server. The benchmark harness follows the same pattern with one
// Client per publisher/subscriber thread.
package client

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/jms"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Errors returned by the client.
var (
	// ErrClosed is returned after Close or when the server disconnects.
	ErrClosed = errors.New("client: connection closed")
	// ErrLost marks a connection that failed rather than being closed by
	// the local Close: the read loop hit a network error, or a send
	// failed. errors.Is(err, ErrLost) is the retryability signal the
	// reconnect layer keys on — a locally closed client is final, a lost
	// connection is worth redialling.
	ErrLost = errors.New("client: connection lost")
)

// connError wraps the underlying network error of a lost connection. It
// matches both ErrLost (new failure classification) and ErrClosed
// (every pre-existing "the connection is gone" check keeps working), and
// unwraps to the root cause for errors.Is(err, io.EOF) and friends.
type connError struct {
	err error
}

// Error implements the error interface.
func (e *connError) Error() string { return "client: connection lost: " + e.err.Error() }

// Unwrap exposes the classification sentinels and the underlying error.
func (e *connError) Unwrap() []error { return []error{ErrLost, ErrClosed, e.err} }

// lostErr classifies err as a lost-connection failure. A nil err (clean
// EOF path already mapped) falls back to bare ErrLost.
func lostErr(err error) error {
	if err == nil {
		return ErrLost
	}
	return &connError{err: err}
}

// ServerError is a request failure reported by the broker.
type ServerError struct {
	Msg string
}

// Error implements the error interface.
func (e *ServerError) Error() string { return "client: server error: " + e.Msg }

// Options configure optional client behaviour. The zero value is a plain
// unbatched client.
type Options struct {
	// BatchMax, when > 1, turns on coalescing publishes: a Publish joins
	// the MSG_BATCH frame the client's last publish opened while that frame
	// still waits for the connection's writer and holds fewer than BatchMax
	// messages, and opens a new one otherwise. One broker acknowledgement
	// then covers the whole frame, amortizing the push-back round trip. A
	// batch forms only while the writer is writing or waking up: a lone
	// publish leaves at once.
	BatchMax int
	// OnSubClosed, when non-nil, is called from the read loop whenever the
	// broker ends a subscription server-side (a SUB_CLOSED notice, e.g.
	// the disconnect slow-consumer policy). The callback must not block:
	// it runs on the connection's inbound path. Receive on the closed
	// subscription reports the same event as *SubClosedError.
	OnSubClosed func(sub *Subscription, reason string)
}

// Client is one connection to a broker. It is safe for concurrent use.
type Client struct {
	conn net.Conn
	opts Options

	// w is the connection's egress: every frame the client sends —
	// requests, publishes, delivery acks — goes into its fill batch, and
	// its writer goroutine sends them, coalesced, in one vectored write.
	w *wire.Egress

	reqID atomic.Uint64

	// traceBase seeds this client's auto-stamped TraceIDs (see stampTrace);
	// traceSeq is the per-publish counter mixed into it.
	traceBase uint64
	traceSeq  atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan error
	subs    map[uint64]*Subscription
	// pendingSubs holds pre-created subscriptions by request ID so the
	// read loop can register them the moment SUBSCRIBE_OK arrives — a
	// durable reattach replays its backlog immediately afterwards, and
	// TCP ordering then guarantees no delivery outruns registration.
	pendingSubs map[uint64]*Subscription
	closed      bool
	readErr     error
	// spare holds the reply channels of finished calls for the next calls
	// to reuse. A channel goes back only once its reply was received: that
	// was its one send (complete and failAll both take it out of pending
	// first), so it is empty and nothing can send into it again. A
	// cancelled or failed call drops its channel instead, since the read
	// loop may still hold it.
	spare []chan error

	// batchMu orders a batching client's publishes (Options.BatchMax);
	// batchCh is the reply channel of the MSG_BATCH frame the last of them
	// opened, which every publish in that frame waits on.
	batchMu sync.Mutex
	batchCh chan error

	// fanout and fanSubs are the read loop's scratch for the subscriptions
	// a delivery frame names and the ones deliver found for them.
	fanout  []wire.DeliveryRef
	fanSubs []*Subscription

	done chan struct{}
}

// maxSpareReplies bounds the reply channels a client keeps for reuse: the
// calls it has had in flight at once, up to this many.
const maxSpareReplies = 64

// Dial connects to a broker at addr ("host:port").
func Dial(addr string) (*Client, error) {
	return DialWith(addr, Options{})
}

// DialWith is Dial with client options.
func DialWith(addr string, opts Options) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial: %w", err)
	}
	return NewClientWith(conn, opts), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return NewClientWith(conn, Options{})
}

// NewClientWith is NewClient with client options.
func NewClientWith(conn net.Conn, opts Options) *Client {
	c := &Client{
		conn:        conn,
		opts:        opts,
		w:           wire.NewEgress(conn),
		traceBase:   newTraceBase(),
		pending:     make(map[uint64]chan error),
		subs:        make(map[uint64]*Subscription),
		pendingSubs: make(map[uint64]*Subscription),
		done:        make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Abandon terminates the connection while classifying in-flight and
// subsequent calls as lost (retryable, errors.Is(err, ErrLost)) rather
// than cleanly closed. The reliability layer uses it to discard a failed
// connection it is replacing: callers blocked on that connection must
// see a retryable failure, not a final Close.
func (c *Client) Abandon() {
	_ = c.conn.Close()
	<-c.done
}

// Close terminates the connection. Pending requests fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

func (c *Client) readLoop() {
	defer close(c.done)
	// Buffered ingress: frames are views into the reader's window (valid
	// for one dispatch call, which materializes deliveries through the
	// arena); the window sizes itself to the deliveries it sees, so one Read
	// syscall yields several frames whenever that many are in flight.
	fr := wire.NewFrameReader(c.conn)
	arena := wire.NewMessageArena()
	for {
		f, err := fr.Next()
		if err != nil {
			// A write still blocked on the connection fails at once, so
			// the writer can stop.
			_ = c.conn.SetWriteDeadline(time.Now())
			c.failAll(err)
			c.w.Close()
			return
		}
		c.dispatch(f, arena)
	}
}

func (c *Client) failAll(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.readErr = err
	// Classify: a locally closed client fails pending calls with the
	// clean ErrClosed; a connection that died under us reports ErrLost
	// wrapping the read error, so callers can decide to retry.
	failErr := error(ErrClosed)
	if !c.closed {
		failErr = lostErr(err)
	}
	for id, ch := range c.pending {
		ch <- failErr
		delete(c.pending, id)
	}
	for _, sub := range c.subs {
		sub.closeOnce()
	}
	c.subs = nil
}

// Done is closed when the read loop has exited — the connection is gone,
// whether by Close or by failure. Err distinguishes the two.
func (c *Client) Done() <-chan struct{} { return c.done }

// Err reports why the connection is gone: nil while it is healthy,
// ErrClosed after a local Close, and an ErrLost-matching error after a
// network failure.
func (c *Client) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return ErrClosed
	}
	if c.readErr != nil {
		return lostErr(c.readErr)
	}
	return nil
}

// dispatch routes one inbound frame. f.Payload may be a view into the
// read loop's buffer, valid only for this call: replies handed to waiting
// callers carry only the frame type (everything a waiter needs is parsed
// here first), and deliveries are materialized through the arena.
func (c *Client) dispatch(f wire.Frame, arena *wire.MessageArena) {
	switch f.Type {
	case wire.FrameSubscribeOK:
		if len(f.Payload) < 16 {
			return
		}
		reqID := binary.BigEndian.Uint64(f.Payload)
		subID := binary.BigEndian.Uint64(f.Payload[8:])
		c.mu.Lock()
		if sub, ok := c.pendingSubs[reqID]; ok {
			delete(c.pendingSubs, reqID)
			sub.id = subID
			if c.subs != nil {
				c.subs[subID] = sub
			}
		}
		c.mu.Unlock()
		c.complete(reqID, nil)

	case wire.FramePubAck, wire.FrameUnsubscribeOK,
		wire.FrameConfigureTopicOK, wire.FrameDeleteDurableOK, wire.FramePong:
		if len(f.Payload) < 8 {
			return
		}
		reqID := binary.BigEndian.Uint64(f.Payload)
		c.complete(reqID, nil)

	case wire.FrameError:
		reqID, msg, err := wire.DecodeError(f.Payload)
		if err != nil {
			return
		}
		c.complete(reqID, &ServerError{Msg: msg})

	case wire.FrameMessage:
		subID, seq, m, err := arena.DecodeDeliveryArena(f.Payload)
		if err != nil {
			return
		}
		c.fanout = append(c.fanout[:0], wire.DeliveryRef{SubID: subID, Seq: seq})
		c.deliver(c.fanout, m, nil)

	case wire.FrameFanout:
		refs, v, err := wire.ParseFanout(c.fanout[:0], f.Payload)
		c.fanout = refs
		if err != nil {
			return
		}
		// One message for several subscriptions of this connection, decoded
		// once into the last of R messages made in one slice: each other
		// subscription gets a copy-on-write view of it in that slice.
		msgs := make([]jms.Message, len(refs))
		m := &msgs[len(refs)-1]
		if arena.MaterializeInto(m, &v) != nil {
			return
		}
		m.SharedInto(msgs[:len(refs)-1])
		c.deliver(refs, m, msgs)

	case wire.FrameSubClosed:
		subID, reason, err := wire.DecodeSubClosed(f.Payload)
		if err != nil {
			return
		}
		c.mu.Lock()
		sub := c.subs[subID]
		if sub != nil {
			delete(c.subs, subID)
		}
		c.mu.Unlock()
		if sub == nil {
			return
		}
		r := reason
		sub.reason.Store(&r)
		// The read loop is the sole sender and delivery frames precede the
		// notice on the wire, so closing the channel here is safe; queued
		// messages stay drainable.
		sub.closeOnce()
		if c.opts.OnSubClosed != nil {
			c.opts.OnSubClosed(sub, reason)
		}
	}
}

// deliver queues a message on each subscription refs names that this
// client still has: m itself when msgs is nil (one subscription), else
// &msgs[i] for refs[i]. The subscriptions are looked up under one c.mu
// acquisition. An acked delivery (Seq != 0) is confirmed once the message is
// safely in the local delivery queue; an unconfirmed one is requeued
// server-side on disconnect. The ack never waits for the writer (see
// wire.Egress.Ack), so a congested socket cannot block inbound frames.
func (c *Client) deliver(refs []wire.DeliveryRef, m *jms.Message, msgs []jms.Message) {
	subs := c.fanSubs[:0]
	c.mu.Lock()
	for _, r := range refs {
		subs = append(subs, c.subs[r.SubID])
	}
	c.mu.Unlock()
	for i, sub := range subs {
		if sub == nil {
			continue
		}
		if msgs != nil {
			m = &msgs[i]
		}
		select {
		case sub.ch <- m:
		default:
			// A full queue: wait for room, or for the subscription to end.
			select {
			case sub.ch <- m:
			case <-sub.gone:
				continue
			}
		}
		if refs[i].Seq != 0 {
			c.w.Ack(refs[i].SubID, refs[i].Seq)
		}
	}
	clear(subs)
	c.fanSubs = subs[:0]
}

func (c *Client) complete(reqID uint64, err error) {
	c.mu.Lock()
	ch, ok := c.pending[reqID]
	if ok {
		delete(c.pending, reqID)
	}
	c.mu.Unlock()
	if ok {
		ch <- err
	}
}

// call sends a request frame and waits for its reply. A SUBSCRIBE passes
// the subscription its reply installs, other requests nil.
func (c *Client) call(ctx context.Context, typ wire.FrameType, inner []byte, sub *Subscription) error {
	reqID := c.reqID.Add(1)
	ch, err := c.register(reqID, sub)
	if err != nil {
		return err
	}
	err = c.await(ctx, reqID, ch, 0, c.w.Request(typ, reqID, inner))
	if err != nil && sub != nil {
		c.mu.Lock()
		delete(c.pendingSubs, reqID)
		c.mu.Unlock()
	}
	return err
}

// register enters a reply channel for the call reqID, and sub, if not nil,
// as the subscription its SUBSCRIBE_OK installs, unless the connection is
// gone.
func (c *Client) register(reqID uint64, sub *Subscription) (chan error, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, ErrClosed
	}
	if c.readErr != nil {
		return nil, lostErr(c.readErr)
	}
	var ch chan error
	if n := len(c.spare); n > 0 {
		ch, c.spare = c.spare[n-1], c.spare[:n-1]
	} else {
		ch = make(chan error, 1)
	}
	c.pending[reqID] = ch
	if sub != nil {
		c.pendingSubs[reqID] = sub
	}
	return ch, nil
}

// await waits for the reply to the call reqID registered on ch, whose frame
// went out as sent unless appending it failed with err. A call that returns
// without its reply — ctx is done, the connection is gone — first waits for
// its frame's batch to be written or discarded, so the bodies the frame
// carries by reference are read during the call only. reqID 0 marks ch as
// the reply channel of a joined MSG_BATCH frame: each of its publishes
// takes the one reply and puts it back for the next, and none removes the
// frame's entry.
func (c *Client) await(ctx context.Context, reqID uint64, ch chan error, sent wire.Sent, err error) error {
	if err != nil {
		c.mu.Lock()
		delete(c.pending, reqID)
		closed := c.closed
		c.mu.Unlock()
		if closed {
			return ErrClosed
		}
		// A failed send means the connection is dying under us — the
		// same retryable class as a read-loop failure.
		return lostErr(fmt.Errorf("send: %w", err))
	}

	select {
	case err := <-ch:
		if reqID == 0 {
			ch <- err
		} else {
			c.mu.Lock()
			if len(c.spare) < maxSpareReplies {
				c.spare = append(c.spare, ch)
			}
			c.mu.Unlock()
		}
		if errors.Is(err, ErrClosed) {
			c.w.Wait(sent) // failAll's, not a reply
		}
		return err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, reqID)
		c.mu.Unlock()
		c.w.Wait(sent)
		return ctx.Err()
	}
}

// ConfigureTopic creates a topic on the broker.
func (c *Client) ConfigureTopic(ctx context.Context, name string) error {
	return c.call(ctx, wire.FrameConfigureTopic, wire.EncodeString(name), nil)
}

// Publish sends a message and waits for the broker's acknowledgement. The
// ack is delayed while the broker's in-flight window is full, which is the
// network form of publisher push-back. On a client with Options.BatchMax
// the message joins the MSG_BATCH frame of the publishes made while the
// connection's writer was busy, and that frame's one acknowledgement is
// awaited instead. The request is encoded into the connection's egress
// batch (wire.Egress), so the publish fast path allocates nothing per
// message, and a body of 1 KiB or more is not copied at all: it goes out by
// reference as its own iovec of the batch's one vectored write. Bodies are
// read only during the call.
func (c *Client) Publish(ctx context.Context, m *jms.Message) error {
	if c.opts.BatchMax > 1 {
		return c.publishJoin(ctx, m)
	}
	return c.publishOne(ctx, m)
}

// clientSeq distinguishes clients created within one clock tick, so two
// publishers never share a TraceID stream.
var clientSeq atomic.Uint64

// newTraceBase derives a per-client TraceID seed.
func newTraceBase() uint64 {
	return trace.NewID(uint64(time.Now().UnixNano()), clientSeq.Add(1)<<32)
}

// stampTrace auto-stamps a nonzero TraceID on a message that has none, so
// every published message carries an end-to-end identity the flight
// recorder can sample. Caller-set IDs are preserved untouched.
func (c *Client) stampTrace(m *jms.Message) {
	if m.Header.TraceID == 0 {
		m.Header.TraceID = trace.NewID(c.traceBase, c.traceSeq.Add(1))
	}
}

// publishOne sends one message as a plain PUBLISH frame.
func (c *Client) publishOne(ctx context.Context, m *jms.Message) error {
	c.stampTrace(m)
	reqID := c.reqID.Add(1)
	ch, err := c.register(reqID, nil)
	if err != nil {
		return err
	}
	sent, err := c.w.Publish(reqID, m)
	return c.await(ctx, reqID, ch, sent, err)
}

// publishJoin sends m in the open MSG_BATCH frame of the egress fill batch
// (wire.Egress.Join), or in a new one whose reply channel it registers
// first, and waits for that frame's reply.
func (c *Client) publishJoin(ctx context.Context, m *jms.Message) error {
	c.stampTrace(m)
	c.batchMu.Lock()
	joined, sent, err := c.w.Join(0, m, c.opts.BatchMax)
	ch, reqID := c.batchCh, uint64(0)
	if err == nil && !joined {
		reqID = c.reqID.Add(1)
		if ch, err = c.register(reqID, nil); err != nil {
			c.batchMu.Unlock()
			return err
		}
		if _, sent, err = c.w.Join(reqID, m, c.opts.BatchMax); err == nil {
			c.batchCh, reqID = ch, 0
		}
	}
	c.batchMu.Unlock()
	return c.await(ctx, reqID, ch, sent, err)
}

// PublishBatch sends several messages in one MSG_BATCH frame and waits for
// the broker's single shared acknowledgement — one push-back round trip
// amortized over the whole batch. An empty batch is a no-op; a batch of
// one degrades to a plain PUBLISH. Messages may span topics; the broker
// preserves slice order.
func (c *Client) PublishBatch(ctx context.Context, msgs []*jms.Message) error {
	switch len(msgs) {
	case 0:
		return nil
	case 1:
		return c.publishOne(ctx, msgs[0])
	}
	for _, m := range msgs {
		c.stampTrace(m)
	}
	reqID := c.reqID.Add(1)
	ch, err := c.register(reqID, nil)
	if err != nil {
		return err
	}
	sent, err := c.w.Batch(reqID, msgs)
	return c.await(ctx, reqID, ch, sent, err)
}

// Subscription is a remote subscription's delivery stream.
type Subscription struct {
	client *Client
	id     uint64
	topic  string
	ch     chan *jms.Message
	gone   chan struct{}
	once   sync.Once
	// reason is set before gone closes when the broker ended the
	// subscription server-side (SUB_CLOSED), so Receive can report why.
	reason atomic.Pointer[string]
}

// SubClosedError is returned by Receive after the broker ended the
// subscription server-side (a SUB_CLOSED notice), e.g. under the
// disconnect slow-consumer policy.
type SubClosedError struct {
	Topic  string
	Reason string
}

// Error implements the error interface.
func (e *SubClosedError) Error() string {
	return "client: subscription on " + e.Topic + " closed by broker: " + e.Reason
}

// Subscribe installs a filter on a topic. Buffer is the local delivery
// queue length (values <= 0 default to 64).
func (c *Client) Subscribe(ctx context.Context, topicName string, spec wire.FilterSpec, buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = 64
	}
	sub := &Subscription{
		client: c,
		topic:  topicName,
		ch:     make(chan *jms.Message, buffer),
		gone:   make(chan struct{}),
	}
	// call registers the subscription before it sends: the read loop moves
	// it into the live table when SUBSCRIBE_OK arrives, setting its ID, so
	// deliveries following the reply on the wire can never be lost.
	if err := c.call(ctx, wire.FrameSubscribe, wire.EncodeSubscribe(topicName, spec), sub); err != nil {
		return nil, err
	}
	return sub, nil
}

// ID returns the server-assigned subscription ID.
func (s *Subscription) ID() uint64 { return s.id }

// Topic returns the topic this subscription was installed on.
func (s *Subscription) Topic() string { return s.topic }

// Chan returns the delivery channel. It is closed when the subscription is
// torn down. A message that matched R > 1 subscriptions of this connection
// arrives in one slice of R messages, the decoded one and its copy-on-write
// views, one per subscription: keeping it keeps that slice (R × 128 bytes
// beside the body they share) alive.
func (s *Subscription) Chan() <-chan *jms.Message { return s.ch }

// Receive blocks for the next message. It returns ErrClosed after the
// subscription was removed or the connection failed, and *SubClosedError
// after the broker ended the subscription server-side (e.g. under the
// disconnect slow-consumer policy). A message it returns may keep its
// fan-out's slice of messages alive, as Chan describes.
func (s *Subscription) Receive(ctx context.Context) (*jms.Message, error) {
	select {
	case m, ok := <-s.ch:
		if !ok {
			return nil, s.closeErr()
		}
		return m, nil
	case <-s.gone:
		return nil, s.closeErr()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// closeErr distinguishes a server-side SUB_CLOSED from a plain local
// close: the former carries the broker's reason.
func (s *Subscription) closeErr() error {
	if r := s.reason.Load(); r != nil {
		return &SubClosedError{Topic: s.topic, Reason: *r}
	}
	return ErrClosed
}

// closeOnce tears the subscription down from the read-loop side. It closes
// the delivery channel, which is safe only because the read loop is the
// sole sender and has stopped when this is called.
func (s *Subscription) closeOnce() {
	s.once.Do(func() {
		close(s.gone)
		close(s.ch)
	})
}

// Unsubscribe removes the subscription on the broker. The delivery channel
// stops receiving; Receive returns ErrClosed. The channel itself is closed
// only on connection teardown (the read loop may still be delivering a
// message that was in flight).
func (s *Subscription) Unsubscribe(ctx context.Context) error {
	c := s.client
	c.mu.Lock()
	if c.subs != nil {
		delete(c.subs, s.id)
	}
	c.mu.Unlock()

	s.once.Do(func() { close(s.gone) })
	return c.call(ctx, wire.FrameUnsubscribe, wire.EncodeU64(s.id), nil)
}

// DeleteDurable removes a named durable subscription from the broker,
// discarding its backlog. It fails while a consumer is attached.
func (c *Client) DeleteDurable(ctx context.Context, topicName, name string) error {
	payload := wire.EncodeString(topicName)
	payload = append(payload, wire.EncodeString(name)...)
	return c.call(ctx, wire.FrameDeleteDurable, payload, nil)
}

// Ping round-trips a liveness probe: it returns once the broker's PONG
// echoes the ping's request ID, or with ctx's error.
func (c *Client) Ping(ctx context.Context) error {
	return c.call(ctx, wire.FramePing, nil, nil)
}
