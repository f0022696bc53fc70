package broker_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/jms"
	"repro/internal/trace"
)

// TestPublishLeavesTimestampZero: the broker's enqueue stamp lives in the
// dispatch unit, never in the JMS Timestamp header, which
// subscribers receive and JMSTimestamp selectors read. A message published
// with a zero Timestamp arrives with a zero Timestamp on every publish path
// and through an SSR mesh's flood, with both enqueue-stamping instruments
// (WaitTiming and a Tracer) on.
func TestPublishLeavesTimestampZero(t *testing.T) {
	rec := trace.New(trace.Config{SampleEvery: 1, FinalizeAfter: time.Hour})
	defer rec.Close()
	opts := broker.Options{WaitTiming: true, Tracer: rec}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var traceID uint64
	msg := func() *jms.Message {
		traceID++
		m := jms.NewMessage("t")
		m.Header.TraceID = traceID
		return m
	}
	check := func(t *testing.T, path string, ch <-chan *jms.Message, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case m := <-ch:
				if m.Header.Timestamp != 0 {
					t.Errorf("%s: delivery %d carries Timestamp %d, want zero", path, i, m.Header.Timestamp)
				}
			case <-ctx.Done():
				t.Fatalf("%s: delivery %d never arrived", path, i)
			}
		}
	}

	b := broker.New(opts)
	defer func() { _ = b.Close() }()
	if err := b.ConfigureTopic("t"); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish(ctx, msg()); err != nil {
		t.Fatal(err)
	}
	check(t, "Publish", sub.Chan(), 1)
	if err := b.PublishBatch(ctx, []*jms.Message{msg(), msg(), msg()}); err != nil {
		t.Fatal(err)
	}
	check(t, "PublishBatch", sub.Chan(), 3)
	c := broker.GetBatchCarrier()
	c.Msgs = append(c.Msgs, msg(), msg(), msg())
	if err := b.Publisher(0).PublishBatchCarrier(ctx, c); err != nil {
		t.Fatal(err)
	}
	check(t, "PublishBatchCarrier", sub.Chan(), 3)

	// SSR floods the origin's message to the other members as clones; a
	// stamp on the original would leak into the clones made after it.
	topo, err := cluster.NewTopology(cluster.TopologyConfig{
		Kind: cluster.TopologySSR, Members: 3, Topics: []string{"t"}, Broker: opts,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topo.Close() }()
	var subs []*cluster.TopoSub
	for home := 0; home < 3; home++ {
		s, err := topo.Subscribe("t", nil, home)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, s)
	}
	for origin := 0; origin < 3; origin++ {
		if err := topo.Publish(ctx, origin, msg()); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range subs {
		check(t, "SSR topology", s.Chan(), 3)
	}
}
