package broker_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/conformance"
	"repro/internal/filter"
	"repro/internal/jms"
)

// publishSeq publishes n messages tagged (pub, seq) with publisher key pub.
func publishSeq(t *testing.T, b *broker.Broker, pub, n int) {
	t.Helper()
	ctx := context.Background()
	p := b.Publisher(uint64(pub))
	for i := 0; i < n; i++ {
		m := jms.NewMessage("t")
		if err := m.SetInt64Property("pub", int64(pub)); err != nil {
			t.Error(err)
			return
		}
		if err := m.SetInt64Property("seq", int64(i)); err != nil {
			t.Error(err)
			return
		}
		if err := p.Publish(ctx, m); err != nil {
			t.Errorf("publisher %d: %v", pub, err)
			return
		}
	}
}

// checkPerPublisherFIFO asserts that, per publisher, the received sequence
// numbers are exactly 0..count-1 in order.
func checkPerPublisherFIFO(t *testing.T, msgs []*jms.Message, publishers, perPublisher int) {
	t.Helper()
	nextSeq := make([]int64, publishers)
	for _, m := range msgs {
		pub, err := m.Int64Property("pub")
		if err != nil {
			t.Fatal(err)
		}
		seq, err := m.Int64Property("seq")
		if err != nil {
			t.Fatal(err)
		}
		if seq != nextSeq[pub] {
			t.Fatalf("publisher %d: got seq %d, want %d (FIFO violated)", pub, seq, nextSeq[pub])
		}
		nextSeq[pub]++
	}
	for pub, n := range nextSeq {
		if n != int64(perPublisher) {
			t.Errorf("publisher %d: delivered %d messages, want %d", pub, n, perPublisher)
		}
	}
}

// engines enumerates both pipeline configurations; the shared FIFO/drain
// suite below must hold on each (the faithful engine ignores Shards and
// runs one worker, the fast engine runs Shards workers with each publisher
// key pinned to one).
var engines = []broker.Engine{broker.EngineFaithful, broker.EngineFast}

// TestPerPublisherFIFO checks that both engines preserve each publisher's
// send order at the subscriber — on the fast engine while the publishers'
// messages are dispatched by several workers concurrently.
func TestPerPublisherFIFO(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine.String(), func(t *testing.T) {
			const publishers, perPublisher = 4, 250
			b := broker.New(broker.Options{
				Engine:           engine,
				Shards:           4,
				InFlight:         16,
				SubscriberBuffer: publishers * perPublisher,
			})
			defer func() { _ = b.Close() }()
			if err := b.ConfigureTopic("t"); err != nil {
				t.Fatal(err)
			}
			sub, err := b.Subscribe("t", nil)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					publishSeq(t, b, p, perPublisher)
				}(p)
			}
			var msgs []*jms.Message
			ctx := context.Background()
			for len(msgs) < publishers*perPublisher {
				m, err := sub.Receive(ctx)
				if err != nil {
					t.Fatal(err)
				}
				msgs = append(msgs, m)
			}
			wg.Wait()
			checkPerPublisherFIFO(t, msgs, publishers, perPublisher)
		})
	}
}

// TestPinnedWorkersTapeAndFIFO: on the fast engine every publisher key is
// pinned to one run-to-completion worker, so each worker is one FIFO
// server. Four publishers on keys 0–3 each send 500 tagged messages; every
// worker's tape entries must pass the single-server identity on their own,
// the subscriber must see each publisher's messages in order, and the tape
// must hold one entry per accepted, unexpired message.
func TestPinnedWorkersTapeAndFIFO(t *testing.T) {
	const publishers, perPublisher = 4, 500
	b := broker.New(broker.Options{
		Engine:           broker.EngineFast,
		Shards:           publishers,
		WaitTiming:       true,
		InFlight:         16,
		SubscriberBuffer: publishers * perPublisher,
	})
	defer func() { _ = b.Close() }()
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	b.TakeTape("t") // arm the tape
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			publishSeq(t, b, p, perPublisher)
		}(p)
	}
	var msgs []*jms.Message
	ctx := context.Background()
	for len(msgs) < publishers*perPublisher {
		m, err := sub.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, m)
	}
	wg.Wait()
	checkPerPublisherFIFO(t, msgs, publishers, perPublisher)

	st := b.Stats()
	want := int(st.Received - st.Expired)
	var tape []broker.TapeEntry
	deadline := time.Now().Add(5 * time.Second)
	for len(tape) < want && time.Now().Before(deadline) {
		entries, overwritten := b.TakeTape("t")
		if overwritten > 0 {
			t.Fatalf("tape overwrote %d entries", overwritten)
		}
		tape = append(tape, entries...)
		time.Sleep(time.Millisecond)
	}
	if len(tape) != want {
		t.Fatalf("tape holds %d entries, want Received - Expired = %d", len(tape), want)
	}
	if err := conformance.CheckTape(tape); err != nil {
		t.Error(err)
	}
	perWorker := make([]int, publishers)
	for _, e := range tape {
		perWorker[e.Worker]++
	}
	for w, n := range perWorker {
		if n != perPublisher {
			t.Errorf("worker %d served %d messages, want publisher %d's %d", w, n, w, perPublisher)
		}
	}
}

// TestBatchedTapeOneServer: a published batch is one unit of service on
// its worker's path. Its members share one Enqueued stamp, and each member
// after the first starts on the tape where the one before it ended, so the
// tape passes the single-server identity and every unit's service times
// sum exactly to its span, first start to last end.
func TestBatchedTapeOneServer(t *testing.T) {
	const units, size = 50, 16
	for _, engine := range engines {
		t.Run(engine.String(), func(t *testing.T) {
			b := broker.New(broker.Options{Engine: engine, WaitTiming: true, SubscriberBuffer: units * size})
			defer func() { _ = b.Close() }()
			if err := b.ConfigureTopic("t"); err != nil {
				t.Fatal(err)
			}
			b.TakeTape("t") // arm the tape
			sub, err := b.Subscribe("t", nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for u := 0; u < units; u++ {
				msgs := make([]*jms.Message, size)
				for i := range msgs {
					msgs[i] = jms.NewMessage("t")
				}
				if err := b.PublishBatch(ctx, msgs); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < units*size; i++ {
				if _, err := sub.Receive(ctx); err != nil {
					t.Fatal(err)
				}
			}
			var tape []broker.TapeEntry
			for deadline := time.Now().Add(5 * time.Second); len(tape) < units*size && time.Now().Before(deadline); {
				entries, _ := b.TakeTape("t")
				tape = append(tape, entries...)
				time.Sleep(time.Millisecond)
			}
			if len(tape) != units*size {
				t.Fatalf("tape holds %d entries, want %d", len(tape), units*size)
			}
			if err := conformance.CheckTape(tape); err != nil {
				t.Error(err)
			}
			for u := 0; u < units; u++ {
				unit := tape[u*size : (u+1)*size]
				var sum time.Duration
				for _, e := range unit {
					if !e.Enqueued.Equal(unit[0].Enqueued) {
						t.Fatalf("unit %d: members stamped %v and %v", u, unit[0].Enqueued, e.Enqueued)
					}
					sum += e.End.Sub(e.Start)
				}
				if span := unit[size-1].End.Sub(unit[0].Start); sum != span {
					t.Errorf("unit %d: members' service times sum to %v, the unit's span is %v", u, sum, span)
				}
			}
		})
	}
}

// TestFIFOThroughShutdownDrain fills the pipeline, closes the broker, and
// checks that every accepted message is delivered in per-publisher FIFO
// order by the shutdown drain, on both engines.
func TestFIFOThroughShutdownDrain(t *testing.T) {
	for _, engine := range engines {
		t.Run(engine.String(), func(t *testing.T) {
			const publishers, perPublisher = 4, 200
			b := broker.New(broker.Options{
				Engine:           engine,
				Shards:           4,
				InFlight:         publishers * perPublisher,
				SubscriberBuffer: publishers * perPublisher,
			})
			if err := b.ConfigureTopic("t"); err != nil {
				t.Fatal(err)
			}
			sub, err := b.Subscribe("t", nil)
			if err != nil {
				t.Fatal(err)
			}

			var wg sync.WaitGroup
			for p := 0; p < publishers; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					publishSeq(t, b, p, perPublisher)
				}(p)
			}
			wg.Wait()
			// All messages are accepted; many still sit in the pipeline.
			// Close must drain them all before the subscriber channel
			// closes.
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			var msgs []*jms.Message
			for m := range sub.Chan() {
				msgs = append(msgs, m)
			}
			checkPerPublisherFIFO(t, msgs, publishers, perPublisher)
		})
	}
}

// TestFastEngineCopyOnWriteDelivery checks copy-on-write replication: all
// matching subscribers receive views sharing the published message's body,
// and a publisher mutating its original afterwards does not affect them.
// Run under -race this also proves the concurrent-reader safety.
func TestFastEngineCopyOnWriteDelivery(t *testing.T) {
	const replicas = 4
	b := broker.New(broker.Options{Engine: broker.EngineFast})
	defer func() { _ = b.Close() }()
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	subs := make([]*broker.Subscriber, replicas)
	for i := range subs {
		s, err := b.Subscribe("t", nil)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}

	orig := jms.NewMessage("t")
	if err := orig.SetStringProperty("user", "alice"); err != nil {
		t.Fatal(err)
	}
	orig.SetBody([]byte("payload"))
	if err := b.Publish(context.Background(), orig); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	views := make([]*jms.Message, replicas)
	for i, s := range subs {
		m, err := s.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = m
	}
	// Copy-on-write, not deep copy: the replicas alias the original body.
	for i, v := range views {
		if &v.Body[0] != &orig.Body[0] {
			t.Errorf("replica %d: body not aliased (deep copy?)", i)
		}
	}

	// The publisher mutates its original while subscribers read views.
	var wg sync.WaitGroup
	for _, v := range views {
		wg.Add(1)
		go func(v *jms.Message) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if got, _ := v.StringProperty("user"); got != "alice" {
					t.Errorf("view observed mutation: user = %q", got)
					return
				}
				if string(v.Body) != "payload" {
					t.Error("view body changed")
					return
				}
			}
		}(v)
	}
	for i := 0; i < 500; i++ {
		if err := orig.SetStringProperty("user", fmt.Sprintf("bob-%d", i)); err != nil {
			t.Fatal(err)
		}
		orig.SetBody([]byte("replaced"))
	}
	wg.Wait()
}

// TestFastEngineFiltering checks that the indexed match agrees with the
// linear scan across the filter families, including expired messages.
func TestFastEngineFiltering(t *testing.T) {
	b := broker.New(broker.Options{Engine: broker.EngineFast})
	defer func() { _ = b.Close() }()
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	exact, err := filter.NewCorrelationID("#7")
	if err != nil {
		t.Fatal(err)
	}
	glob, err := filter.NewCorrelationID("#*")
	if err != nil {
		t.Fatal(err)
	}
	other, err := filter.NewCorrelationID("#8")
	if err != nil {
		t.Fatal(err)
	}
	sExact, err := b.Subscribe("t", exact)
	if err != nil {
		t.Fatal(err)
	}
	sGlob, err := b.Subscribe("t", glob)
	if err != nil {
		t.Fatal(err)
	}
	sOther, err := b.Subscribe("t", other)
	if err != nil {
		t.Fatal(err)
	}

	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("#7"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := b.Publish(ctx, m); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*broker.Subscriber{sExact, sGlob} {
		if _, err := s.Receive(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if got := sOther.Delivered(); got != 0 {
		t.Errorf("non-matching subscriber delivered %d messages", got)
	}
	// A delivery is counted in Dispatched before it can be received.
	stats := b.Stats()
	if stats.Dispatched != 2 {
		t.Errorf("Dispatched = %d, want 2", stats.Dispatched)
	}
	// Indexed matching: the exact population (#7, #8) costs one hash
	// probe and the glob one evaluation — 2 evals, not 3 as on the
	// faithful linear scan.
	if stats.FilterEvals != 2 {
		t.Errorf("FilterEvals = %d, want 2 (probe + glob)", stats.FilterEvals)
	}
}
