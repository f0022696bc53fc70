package bench

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/jms"
	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/wire"
)

// This file is the package's one load loop, the paper's test clients, on a
// broker.Broker in process (run) or on live servers over the wire
// (RunWire). Both transports have the method shapes below.

// publisher is a broker.Publisher or a *client.Client.
type publisher interface {
	Publish(ctx context.Context, m *jms.Message) error
	PublishBatch(ctx context.Context, msgs []*jms.Message) error
}

// receiver is a *broker.Subscriber or a *client.Subscription.
type receiver interface {
	Receive(ctx context.Context) (*jms.Message, error)
}

// Phase is a load phase's shape. Its publishers send clones of one
// message: saturated, in calls of Batch messages when Batch > 1, or with
// Rate > 0 as Poisson arrivals at Rate msgs/s drawn from Seed and dealt
// round-robin over the publishers, Messages of them or, with Messages = 0,
// until the window closes. A phase of Messages arrivals is measured over
// its whole schedule, any other for Measure after Warmup.
type Phase struct {
	Batch, Messages int
	Rate            float64
	Seed            int64
	Warmup, Measure time.Duration
	// Mark, if set, runs as the window opens (true) and closes (false),
	// so a caller can take counters of its own at the same instants.
	Mark func(open bool)
	// Stamp, if set, sees each message before it is published, with its
	// send time: when paced, the arrival's due time, so a pacer or publish
	// stall is charged to the messages it delayed.
	Stamp func(m *jms.Message, sent time.Time)
	// Deliver, if set, sees each delivery a drain reads.
	Deliver func(m *jms.Message)
}

// Window is what a phase counted: the publishes acked and the deliveries
// read within its window and, after the publishers stopped and the
// deliveries drained, the ledger: the publishes acked over the whole phase
// and the deliveries read by the end, r·Acked when it closes.
type Window struct {
	Elapsed                             time.Duration
	Received, Delivered, Acked, Drained uint64
	Pacing                              loadgen.Result
	PacingErr                           error
}

// load is a Phase over handles of either transport: one drain reads each
// of subs, and each publish of msg reaches r of them.
type load struct {
	Phase
	pubs []publisher
	subs []receiver
	r    int
	msg  *jms.Message
}

// counter is one loop's count on a cache line of its own, so no two
// publishers or drains write a shared line.
type counter struct {
	atomic.Uint64
	_ [56]byte
}

func sum(cs []counter) (n uint64) {
	for i := range cs {
		n += cs[i].Load()
	}
	return n
}

// run runs the phase. After the window the publishers stop between calls,
// and the call outstanding then gets a 2 s grace: cancelling it at once
// would abandon a publish the server may have accepted, delivered but never
// counted as acked. The drains then run until every acked publish has
// reached r subscriptions, for at most 10 s.
func (l load) run() (w Window) {
	if l.Mark == nil {
		l.Mark = func(bool) {}
	}
	drainCtx, stopDrains := context.WithCancel(context.Background())
	got := make([]counter, len(l.subs))
	var drains sync.WaitGroup
	for i, s := range l.subs {
		drains.Add(1)
		go func() {
			defer drains.Done()
			for m, err := s.Receive(drainCtx); err == nil; m, err = s.Receive(drainCtx) {
				got[i].Add(1)
				if l.Deliver != nil {
					l.Deliver(m)
				}
			}
		}()
	}

	stop, stopPubs := context.WithCancel(context.Background())
	pubCtx, cancelPubs := context.WithCancel(context.Background())
	defer cancelPubs()
	acked := make([]counter, len(l.pubs))
	paced := func(_ context.Context, i int, due time.Time) error {
		p := i % len(l.pubs)
		err := l.pubs[p].Publish(pubCtx, l.clone(due)) // through a client's coalescer, if any
		if err == nil {
			acked[p].Add(1)
		}
		return err
	}
	var pubs sync.WaitGroup
	if l.Rate == 0 {
		for p := range l.pubs {
			pubs.Add(1)
			go func() {
				defer pubs.Done()
				// One slice for every call, as neither transport keeps it
				// (the broker copies the pointers into a carrier, the client
				// encodes first). The messages are fresh clones each time:
				// a published message may not be modified.
				msgs := make([]*jms.Message, max(l.Batch, 1))
				for stop.Err() == nil {
					for i := range msgs {
						msgs[i] = l.clone(time.Time{})
					}
					if l.pubs[p].PublishBatch(pubCtx, msgs) != nil {
						return
					}
					acked[p].Add(uint64(len(msgs)))
				}
			}()
		}
	} else if l.Messages <= 0 {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			w.Pacing, w.PacingErr = loadgen.Run(stop, stats.NewRNG(l.Seed), l.Rate, 0, paced)
		}()
	}
	counted := l.Rate > 0 && l.Messages > 0
	if !counted {
		time.Sleep(l.Warmup)
	}
	l.Mark(true)
	acked0, got0, start := sum(acked), sum(got), time.Now()
	if counted {
		w.Pacing, w.PacingErr = loadgen.Run(stop, stats.NewRNG(l.Seed), l.Rate, l.Messages, paced)
	} else {
		time.Sleep(l.Measure)
	}
	w.Received, w.Delivered, w.Elapsed = sum(acked)-acked0, sum(got)-got0, time.Since(start)
	l.Mark(false)

	stopPubs()
	grace := time.AfterFunc(2*time.Second, cancelPubs)
	pubs.Wait()
	grace.Stop()
	w.Acked = sum(acked)
	for deadline := time.Now().Add(10 * time.Second); sum(got) < w.Acked*uint64(l.r) && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	w.Drained = sum(got)
	stopDrains()
	drains.Wait()
	return w
}

// clone copies the template and, if a stamp hook is set, stamps the copy
// with sent, or with the time now when sent is zero.
func (l load) clone(sent time.Time) *jms.Message {
	m := l.msg.Clone()
	if l.Stamp != nil {
		if sent.IsZero() {
			sent = time.Now()
		}
		l.Stamp(m, sent)
	}
	return m
}

// filterSpec returns the filter of the family selecting value v: v = 0
// matches benchMessage, any other value does not. Topic selection installs
// match-all subscriptions; an unknown family is a spec no transport builds.
func filterSpec(ft core.FilterType, v int) wire.FilterSpec {
	switch ft {
	case topicSelection:
		return wire.FilterSpec{Mode: wire.FilterNone}
	case core.CorrelationIDFiltering:
		return wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: "#" + strconv.Itoa(v)}
	case core.ApplicationPropertyFiltering:
		return wire.FilterSpec{Mode: wire.FilterSelector, Expr: "prop = " + strconv.Itoa(v)}
	}
	return wire.FilterSpec{}
}

// benchMessage builds the message all publishers send, cloned per send as
// from the paper's pre-created pools: correlation ID #0 or property
// prop=0, and a body of the given size (zero bytes in the paper).
func benchMessage(topic string, ft core.FilterType, body int) (*jms.Message, error) {
	m := jms.NewMessage(topic)
	if body > 0 {
		m.Body = make([]byte, body)
	}
	switch ft {
	case topicSelection:
		return m, nil
	case core.CorrelationIDFiltering:
		return m, m.SetCorrelationID("#0")
	case core.ApplicationPropertyFiltering:
		return m, m.SetInt32Property("prop", 0)
	}
	return nil, fmt.Errorf("%w: filter type %d", ErrBench, int(ft))
}

// WireLoad is a Phase against live wire servers, each publisher and
// subscriber on a connection of its own, as in the paper. Publisher p
// dials Addrs[p mod len(Addrs)]; subscriber i subscribes once on each
// member Homes(i) lists, on a connection of its own there. The first
// Matching subscribers select the traffic, by correlation ID or, with
// Selectors, by the property prop. Paced publishers with Batch > 1
// coalesce on the client (Options.BatchMax): a publish joins the batch of
// those made while the connection's write was in flight. Saturated ones
// send explicit batches of Batch messages.
type WireLoad struct {
	Phase
	Topic                             string
	Addrs                             []string
	Homes                             func(i int) []string
	Publishers, Matching, NonMatching int
	Selectors                         bool
}

// RunWire runs a phase over the wire on a topic every member has: it dials
// the clients, runs the load loop over them and closes them.
func RunWire(wl WireLoad) (Window, error) {
	if wl.Publishers < 1 || len(wl.Addrs) == 0 {
		return Window{}, fmt.Errorf("%w: publishers=%d members=%d", ErrBench, wl.Publishers, len(wl.Addrs))
	}
	ft := core.CorrelationIDFiltering
	if wl.Selectors {
		ft = core.ApplicationPropertyFiltering
	}
	msg, err := benchMessage(wl.Topic, ft, 0)
	if err != nil {
		return Window{}, err
	}
	l := load{Phase: wl.Phase, r: wl.Matching, msg: msg}
	var conns []*client.Client
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := 0; i < wl.Matching+wl.NonMatching; i++ {
		spec := filterSpec(ft, max(i-wl.Matching+1, 0))
		for _, home := range wl.Homes(i) {
			c, err := client.Dial(home)
			if err != nil {
				return Window{}, err
			}
			conns = append(conns, c)
			s, err := c.Subscribe(ctx, wl.Topic, spec, 4096)
			if err != nil {
				return Window{}, err
			}
			l.subs = append(l.subs, s)
		}
	}
	var opts client.Options
	if wl.Rate > 0 && wl.Batch > 1 {
		opts = client.Options{BatchMax: wl.Batch}
	}
	for p := 0; p < wl.Publishers; p++ {
		c, err := client.DialWith(wl.Addrs[p%len(wl.Addrs)], opts)
		if err != nil {
			return Window{}, err
		}
		conns, l.pubs = append(conns, c), append(l.pubs, c)
	}
	return l.run(), nil
}
