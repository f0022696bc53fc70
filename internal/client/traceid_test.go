package client

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/jms"
	"repro/internal/wire"
)

// These tests pin the TraceID lifecycle the flight recorder depends on:
// the client stamps a nonzero ID on every publish that lacks one, caller
// IDs pass through untouched, and the value survives every wire path —
// single frames, explicit batches, coalesced publishes and the
// server's arena/view materialization — unchanged.

func subscribeAll(t *testing.T, addr, topic string) *Subscription {
	t.Helper()
	c := dialT(t, addr)
	ctx := ctxT(t)
	// Several subscribers may share a topic; the duplicate error is fine.
	_ = c.ConfigureTopic(ctx, topic)
	sub, err := c.Subscribe(ctx, topic, wire.FilterSpec{Mode: wire.FilterNone}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

func TestPublishAutoStampsTraceID(t *testing.T) {
	addr, _ := startServer(t)
	sub := subscribeAll(t, addr, "t")
	pub := dialT(t, addr)
	ctx := ctxT(t)

	seen := map[uint64]bool{}
	for i := 0; i < 10; i++ {
		m := jms.NewMessage("t")
		if m.Header.TraceID != 0 {
			t.Fatal("fresh message carries a TraceID")
		}
		if err := pub.Publish(ctx, m); err != nil {
			t.Fatal(err)
		}
		got, err := sub.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got.Header.TraceID == 0 {
			t.Fatalf("delivery %d arrived without a TraceID", i)
		}
		if seen[got.Header.TraceID] {
			t.Fatalf("duplicate auto-stamped TraceID %d", got.Header.TraceID)
		}
		seen[got.Header.TraceID] = true
	}
}

func TestExplicitTraceIDPreserved(t *testing.T) {
	addr, _ := startServer(t)
	sub := subscribeAll(t, addr, "t")
	pub := dialT(t, addr)
	ctx := ctxT(t)

	const id = 0xDEADBEEFCAFE
	m := jms.NewMessage("t")
	m.Header.TraceID = id
	if err := pub.Publish(ctx, m); err != nil {
		t.Fatal(err)
	}
	got, err := sub.Receive(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got.Header.TraceID != id {
		t.Errorf("TraceID = %#x, want %#x", got.Header.TraceID, id)
	}
}

// TestTraceIDDifferentialAcrossPaths publishes the same labeled message
// set through the single-frame path, the explicit batch path and the
// coalescing client (Options.BatchMax), with caller-assigned IDs, and requires all three
// to deliver the identical body→TraceID mapping — the differential check
// that no wire path loses or rewrites the header.
func TestTraceIDDifferentialAcrossPaths(t *testing.T) {
	const n = 24
	ids := func(run int) map[string]uint64 {
		out := make(map[string]uint64, n)
		for i := 0; i < n; i++ {
			out[fmt.Sprintf("m%d", i)] = uint64(run)<<32 | uint64(i+1)
		}
		return out
	}
	collect := func(t *testing.T, sub *Subscription) map[string]uint64 {
		t.Helper()
		ctx := ctxT(t)
		got := make(map[string]uint64, n)
		for len(got) < n {
			m, err := sub.Receive(ctx)
			if err != nil {
				t.Fatal(err)
			}
			got[string(m.Body)] = m.Header.TraceID
		}
		return got
	}
	asSorted := func(m map[string]uint64) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		s := ""
		for _, k := range keys {
			s += fmt.Sprintf("%s=%d;", k, m[k]-(m[k]>>32)<<32)
		}
		return s
	}

	mk := func(body string, id uint64) *jms.Message {
		m := jms.NewMessage("t")
		m.SetBody([]byte(body))
		m.Header.TraceID = id
		return m
	}

	// Single-frame path.
	addr, _ := startServer(t)
	sub := subscribeAll(t, addr, "t")
	pub := dialT(t, addr)
	ctx := ctxT(t)
	want := ids(1)
	for body, id := range want {
		if err := pub.Publish(ctx, mk(body, id)); err != nil {
			t.Fatal(err)
		}
	}
	single := collect(t, sub)
	for body, id := range want {
		if single[body] != id {
			t.Errorf("single path: %s TraceID %d, want %d", body, single[body], id)
		}
	}

	// Explicit batch path (MSG_BATCH frame, arena decode on the server).
	addr2, _ := startServer(t)
	sub2 := subscribeAll(t, addr2, "t")
	pub2 := dialT(t, addr2)
	want2 := ids(2)
	msgs := make([]*jms.Message, 0, n)
	for body, id := range want2 {
		msgs = append(msgs, mk(body, id))
	}
	if err := pub2.PublishBatch(ctx, msgs); err != nil {
		t.Fatal(err)
	}
	batch := collect(t, sub2)
	for body, id := range want2 {
		if batch[body] != id {
			t.Errorf("batch path: %s TraceID %d, want %d", body, batch[body], id)
		}
	}

	// Coalescer path: concurrent publishes join each other's MSG_BATCH
	// frames.
	addr3, _ := startServer(t)
	sub3 := subscribeAll(t, addr3, "t")
	pub3, err := DialWith(addr3, Options{BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub3.Close() })
	want3 := ids(3)
	var wg sync.WaitGroup
	for body, id := range want3 {
		wg.Add(1)
		go func(body string, id uint64) {
			defer wg.Done()
			if err := pub3.Publish(ctx, mk(body, id)); err != nil {
				t.Error(err)
			}
		}(body, id)
	}
	wg.Wait()
	coalesced := collect(t, sub3)
	for body, id := range want3 {
		if coalesced[body] != id {
			t.Errorf("coalescer path: %s TraceID %d, want %d", body, coalesced[body], id)
		}
	}

	// The three paths delivered the same body→sequence mapping.
	if asSorted(single) != asSorted(batch) || asSorted(batch) != asSorted(coalesced) {
		t.Error("paths disagree on delivered body→TraceID mapping")
	}
}

func TestCoalescerAutoStamps(t *testing.T) {
	addr, _ := startServer(t)
	sub := subscribeAll(t, addr, "t")
	pub, err := DialWith(addr, Options{BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	ctx := ctxT(t)

	const n = 16
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := pub.Publish(ctx, jms.NewMessage("t")); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		m, err := sub.Receive(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if m.Header.TraceID == 0 {
			t.Fatal("coalesced delivery without TraceID")
		}
		if seen[m.Header.TraceID] {
			t.Fatalf("duplicate TraceID %d through coalescer", m.Header.TraceID)
		}
		seen[m.Header.TraceID] = true
	}
}
