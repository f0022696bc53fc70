package broker

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/jms"
)

// metamorphicFilter draws one filter per subscription from every family
// the fast engine's index specializes (match-all, exact/glob/range
// correlation IDs, selectors, composites), with pools small enough that
// duplicate rules — the grouping case — occur routinely.
func metamorphicFilter(t *testing.T, rng *rand.Rand, composite bool) filter.Filter {
	t.Helper()
	mk := func(f filter.Filter, err error) filter.Filter {
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	top := 7
	if composite {
		top = 9
	}
	switch rng.Intn(top) {
	case 0:
		return filter.All{}
	case 1, 2:
		return mk(filter.NewCorrelationID(fmt.Sprintf("#%d", rng.Intn(8))))
	case 3:
		return mk(filter.NewCorrelationID(fmt.Sprintf("ord-%d*", rng.Intn(3))))
	case 4:
		return mk(filter.NewCorrelationID(fmt.Sprintf("#[%d;%d]", rng.Intn(4), 4+rng.Intn(4))))
	case 5:
		return mk(filter.NewProperty(fmt.Sprintf("qty > %d", rng.Intn(10))))
	case 6:
		return mk(filter.NewProperty(fmt.Sprintf("region = 'r%d'", rng.Intn(3))))
	case 7:
		return mk(filter.NewAnd(metamorphicFilter(t, rng, false), metamorphicFilter(t, rng, false)))
	default:
		return mk(filter.NewOr(metamorphicFilter(t, rng, false), metamorphicFilter(t, rng, false)))
	}
}

func metamorphicMessage(t *testing.T, rng *rand.Rand, body string) *jms.Message {
	t.Helper()
	m := jms.NewMessage("t")
	var corrID string
	switch rng.Intn(3) {
	case 0:
		corrID = fmt.Sprintf("#%d", rng.Intn(8))
	case 1:
		corrID = fmt.Sprintf("ord-%d%d", rng.Intn(3), rng.Intn(100))
	default:
		corrID = "other"
	}
	if err := m.SetCorrelationID(corrID); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt32Property("qty", int32(rng.Intn(12))); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("region", fmt.Sprintf("r%d", rng.Intn(4))); err != nil {
		t.Fatal(err)
	}
	m.SetBody([]byte(body))
	return m
}

// TestEnginesDeliverIdentically is the end-to-end metamorphic check: the
// same random subscription population fed the same random message stream
// must produce, per subscriber, the same delivered multiset on
// EngineFaithful (linear scan, one worker) and EngineFast (indexed,
// several workers) — and both must equal the ground truth computed by
// evaluating each filter directly. The comparison is per-subscriber and
// order-insensitive.
func TestEnginesDeliverIdentically(t *testing.T) {
	const (
		nSubs     = 60
		nMessages = 300
		seed      = 99
	)

	// One shared draw of filters and messages for every leg.
	rng := rand.New(rand.NewSource(seed))
	filters := make([]filter.Filter, nSubs)
	for i := range filters {
		filters[i] = metamorphicFilter(t, rng, true)
	}
	msgs := make([]*jms.Message, nMessages)
	for i := range msgs {
		msgs[i] = metamorphicMessage(t, rng, fmt.Sprintf("m%d", i))
	}

	// Ground truth by direct filter evaluation.
	want := make([][]string, nSubs)
	for i, f := range filters {
		for _, m := range msgs {
			if f.Matches(m) {
				want[i] = append(want[i], string(m.Body))
			}
		}
		sort.Strings(want[i])
	}

	run := func(t *testing.T, engine Engine, shards int) [][]string {
		t.Helper()
		b := New(Options{
			Engine: engine,
			Shards: shards,
			// Room for every delivery: persistent-mode transmits block on
			// a full buffer, and this test is about match sets, not flow
			// control.
			SubscriberBuffer: nMessages,
			InFlight:         64,
		})
		defer func() { _ = b.Close() }()
		if err := b.ConfigureTopic("t"); err != nil {
			t.Fatal(err)
		}
		subs := make([]*Subscriber, nSubs)
		for i, f := range filters {
			s, err := b.Subscribe("t", f)
			if err != nil {
				t.Fatal(err)
			}
			subs[i] = s
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, m := range msgs {
			if err := b.Publish(ctx, m.Clone()); err != nil {
				t.Fatal(err)
			}
		}
		// Wait for the tail of the dispatch queue to drain.
		deadline := time.Now().Add(20 * time.Second)
		for i, s := range subs {
			for s.Delivered() != uint64(len(want[i])) {
				if time.Now().After(deadline) {
					t.Fatalf("subscriber %d (%v): delivered %d, ground truth %d",
						i, filters[i], s.Delivered(), len(want[i]))
				}
				time.Sleep(time.Millisecond)
			}
		}
		got := make([][]string, nSubs)
		for i, s := range subs {
			for _, m := range drainQueued(s) {
				got[i] = append(got[i], string(m.Body))
			}
			sort.Strings(got[i])
		}
		return got
	}

	faithful := run(t, EngineFaithful, 0)
	fast := run(t, EngineFast, 4)

	for i := range filters {
		if fmt.Sprint(faithful[i]) != fmt.Sprint(want[i]) {
			t.Errorf("subscriber %d (%v): faithful engine diverges from direct evaluation\ngot  %v\nwant %v",
				i, filters[i], faithful[i], want[i])
		}
		if fmt.Sprint(fast[i]) != fmt.Sprint(faithful[i]) {
			t.Errorf("subscriber %d (%v): engines diverge\nfast     %v\nfaithful %v",
				i, filters[i], fast[i], faithful[i])
		}
	}
}

// doneContext returns a context that is already done: Receive with it
// returns a queued delivery or an error, and never waits.
func doneContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// drainQueued returns the deliveries queued for s, oldest first.
func drainQueued(s *Subscriber) []*jms.Message {
	done := doneContext()
	var msgs []*jms.Message
	for {
		m, err := s.Receive(done)
		if err != nil {
			return msgs
		}
		msgs = append(msgs, m)
	}
}
