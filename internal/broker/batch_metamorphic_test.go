package broker

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/jms"
)

// TestBatchPublishMetamorphic pins the batching metamorphic relation on
// both engines: publishing N messages individually and publishing the same
// messages as batches (of mixed sizes) must yield identical per-subscriber
// delivery sequences — the same multiset AND the same order, since both
// legs are a single publisher and batches unfold in slice order. Batching
// is a transport optimization; it must be invisible to subscribers.
func TestBatchPublishMetamorphic(t *testing.T) {
	const (
		nSubs     = 40
		nMessages = 240
		seed      = 1234
	)

	rng := rand.New(rand.NewSource(seed))
	filters := make([]filter.Filter, nSubs)
	for i := range filters {
		filters[i] = metamorphicFilter(t, rng, true)
	}
	msgs := make([]*jms.Message, nMessages)
	for i := range msgs {
		msgs[i] = metamorphicMessage(t, rng, fmt.Sprintf("m%d", i))
	}
	// Mixed batch sizes covering the degenerate cases (1) and a size well
	// past the default compare point (16).
	var cuts []int
	for at := 0; at < nMessages; {
		size := 1 + rng.Intn(24)
		if at+size > nMessages {
			size = nMessages - at
		}
		at += size
		cuts = append(cuts, at)
	}

	expected := make([]int, nSubs)
	for i, f := range filters {
		for _, m := range msgs {
			if f.Matches(m) {
				expected[i]++
			}
		}
	}

	run := func(t *testing.T, engine Engine, shards int, batched bool) [][]string {
		t.Helper()
		b := New(Options{
			Engine:           engine,
			Shards:           shards,
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
		if batched {
			prev := 0
			for _, cut := range cuts {
				batch := make([]*jms.Message, 0, cut-prev)
				for _, m := range msgs[prev:cut] {
					batch = append(batch, m.Clone())
				}
				if err := b.PublishBatch(ctx, batch); err != nil {
					t.Fatal(err)
				}
				prev = cut
			}
		} else {
			for _, m := range msgs {
				if err := b.Publish(ctx, m.Clone()); err != nil {
					t.Fatal(err)
				}
			}
		}
		deadline := time.Now().Add(20 * time.Second)
		for i, s := range subs {
			for s.Delivered() != uint64(expected[i]) {
				if time.Now().After(deadline) {
					t.Fatalf("subscriber %d (%v): delivered %d, want %d",
						i, filters[i], s.Delivered(), expected[i])
				}
				time.Sleep(time.Millisecond)
			}
		}
		got := make([][]string, nSubs)
		for i, s := range subs {
			for _, m := range drainQueued(s) {
				got[i] = append(got[i], string(m.Body))
			}
		}
		return got
	}

	for _, eng := range []struct {
		name   string
		engine Engine
		shards int
	}{
		{"faithful", EngineFaithful, 0},
		{"fast", EngineFast, 4},
	} {
		t.Run(eng.name, func(t *testing.T) {
			individual := run(t, eng.engine, eng.shards, false)
			batched := run(t, eng.engine, eng.shards, true)
			for i := range filters {
				if fmt.Sprint(individual[i]) != fmt.Sprint(batched[i]) {
					t.Errorf("subscriber %d (%v): batched delivery diverges\nindividual %v\nbatched    %v",
						i, filters[i], individual[i], batched[i])
				}
			}
		})
	}
}
