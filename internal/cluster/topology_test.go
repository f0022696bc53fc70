package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/filter"
	"repro/internal/jms"
)

// topoTestCase describes one metamorphic subscriber: its topic and filter
// constructor (nil for match-all).
type topoTestSub struct {
	topic string
	mkF   func() filter.Filter
}

func corrFilter(t *testing.T, expr string) func() filter.Filter {
	t.Helper()
	return func() filter.Filter {
		f, err := filter.NewCorrelationID(expr)
		if err != nil {
			t.Fatalf("correlation filter %q: %v", expr, err)
		}
		return f
	}
}

func propFilter(t *testing.T, src string) func() filter.Filter {
	t.Helper()
	return func() filter.Filter {
		f, err := filter.NewProperty(src)
		if err != nil {
			t.Fatalf("property filter %q: %v", src, err)
		}
		return f
	}
}

// makeTopoMessages builds a deterministic message stream across topics,
// correlation IDs and properties. Each call builds fresh instances, so the
// same stream can be replayed against the baseline broker.
func makeTopoMessages(t *testing.T, topics []string, n int, seed int64) []*jms.Message {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]*jms.Message, n)
	for i := range msgs {
		m := jms.NewMessage(topics[rng.Intn(len(topics))])
		if err := m.SetCorrelationID(fmt.Sprintf("#%d", rng.Intn(5))); err != nil {
			t.Fatal(err)
		}
		if err := m.SetInt64Property("shard", int64(rng.Intn(4))); err != nil {
			t.Fatal(err)
		}
		m.SetBody([]byte(fmt.Sprintf("msg-%d", i)))
		msgs[i] = m
	}
	return msgs
}

// expectedCounts evaluates the filters directly: how many stream messages
// each subscriber must receive.
func expectedCounts(subs []topoTestSub, filters []filter.Filter, msgs []*jms.Message) []int {
	out := make([]int, len(subs))
	for i, s := range subs {
		for _, m := range msgs {
			if m.Header.Topic != s.topic {
				continue
			}
			if filters[i] == nil || filters[i].Matches(m) {
				out[i]++
			}
		}
	}
	return out
}

// collectExactly drains want messages from ch into a body multiset, then
// verifies no extra message trails within the grace window.
func collectExactly(t *testing.T, name string, ch <-chan *jms.Message, want int) map[string]int {
	t.Helper()
	got := make(map[string]int, want)
	deadline := time.After(20 * time.Second)
	for n := 0; n < want; n++ {
		select {
		case m, ok := <-ch:
			if !ok {
				t.Fatalf("%s: channel closed after %d of %d", name, n, want)
			}
			got[string(m.Body)]++
		case <-deadline:
			t.Fatalf("%s: timed out at %d of %d deliveries", name, n, want)
		}
	}
	select {
	case m := <-ch:
		t.Fatalf("%s: extra delivery %q beyond %d", name, m.Body, want)
	case <-time.After(50 * time.Millisecond):
	}
	return got
}

// TestTopologyMetamorphic is the delivery-equivalence wall: for every
// topology and both engines, the per-subscriber delivery multiset equals
// the single-broker baseline on the identical message stream.
func TestTopologyMetamorphic(t *testing.T) {
	topics := []string{"alpha", "beta", "gamma"}
	subs := []topoTestSub{
		{topic: "alpha", mkF: nil},
		{topic: "alpha", mkF: corrFilter(t, "#1")},
		{topic: "beta", mkF: corrFilter(t, "[1;3]")},
		{topic: "beta", mkF: propFilter(t, "shard = 2")},
		{topic: "gamma", mkF: propFilter(t, "shard >= 1 AND shard <= 2")},
		{topic: "gamma", mkF: nil},
	}
	const messages = 400

	for _, engine := range []broker.Engine{broker.EngineFaithful, broker.EngineFast} {
		for _, kind := range []TopologyKind{TopologyPSR, TopologySSR, TopologyHash} {
			kind, engine := kind, engine
			t.Run(fmt.Sprintf("%s-%v", kind, engine), func(t *testing.T) {
				t.Parallel()
				mkFilters := func() []filter.Filter {
					fs := make([]filter.Filter, len(subs))
					for i, s := range subs {
						if s.mkF != nil {
							fs[i] = s.mkF()
						}
					}
					return fs
				}

				// Baseline: one broker, same filters, same stream.
				base := broker.New(broker.Options{Engine: engine, SubscriberBuffer: 2 * messages})
				defer func() { _ = base.Close() }()
				for _, tp := range topics {
					if err := base.ConfigureTopic(tp); err != nil {
						t.Fatal(err)
					}
				}
				baseFilters := mkFilters()
				baseSubs := make([]*broker.Subscriber, len(subs))
				for i, s := range subs {
					bs, err := base.Subscribe(s.topic, baseFilters[i])
					if err != nil {
						t.Fatal(err)
					}
					baseSubs[i] = bs
				}
				stream := makeTopoMessages(t, topics, messages, 42)
				want := expectedCounts(subs, baseFilters, stream)
				ctx := context.Background()
				for _, m := range stream {
					if err := base.Publish(ctx, m); err != nil {
						t.Fatal(err)
					}
				}

				// Topology under test on an identical fresh stream.
				topo, err := NewTopology(TopologyConfig{
					Kind:    kind,
					Members: 3,
					Topics:  topics,
					Broker:  broker.Options{Engine: engine, SubscriberBuffer: 2 * messages},
				})
				if err != nil {
					t.Fatal(err)
				}
				defer func() { _ = topo.Close() }()
				topoFilters := mkFilters()
				topoSubs := make([]*TopoSub, len(subs))
				for i, s := range subs {
					ts, err := topo.Subscribe(s.topic, topoFilters[i], i)
					if err != nil {
						t.Fatal(err)
					}
					topoSubs[i] = ts
				}
				for i, m := range makeTopoMessages(t, topics, messages, 42) {
					if err := topo.Publish(ctx, i, m); err != nil {
						t.Fatal(err)
					}
				}

				for i := range subs {
					name := fmt.Sprintf("sub%d(%s)", i, subs[i].topic)
					baseGot := collectExactly(t, "baseline "+name, baseSubs[i].Chan(), want[i])
					topoGot := collectExactly(t, kind.String()+" "+name, topoSubs[i].Chan(), want[i])
					if len(baseGot) != len(topoGot) {
						t.Fatalf("%s: multiset size %d vs baseline %d", name, len(topoGot), len(baseGot))
					}
					for body, n := range baseGot {
						if topoGot[body] != n {
							t.Fatalf("%s: message %q delivered %d times, baseline %d", name, body, topoGot[body], n)
						}
					}
				}
			})
		}
	}
}

// TestTopologyHashRebalanceLossless exercises the graceful join/leave
// path: a paced publisher stream interleaved with AddMember and
// RemoveMember must deliver exactly the acked multiset.
func TestTopologyHashRebalanceLossless(t *testing.T) {
	topics := make([]string, 8)
	for i := range topics {
		topics[i] = fmt.Sprintf("t%d", i)
	}
	topo, err := NewTopology(TopologyConfig{
		Kind:    TopologyHash,
		Members: 3,
		Topics:  topics,
		Broker:  broker.Options{SubscriberBuffer: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topo.Close() }()

	subsByTopic := make(map[string]*TopoSub, len(topics))
	for i, tp := range topics {
		s, err := topo.Subscribe(tp, nil, i)
		if err != nil {
			t.Fatal(err)
		}
		subsByTopic[tp] = s
	}
	// Concurrent drainers keep merged channels moving during rebalances.
	var (
		gotMu sync.Mutex
		got   = make(map[string]map[string]int)
		wg    sync.WaitGroup
	)
	for tp, s := range subsByTopic {
		tp, s := tp, s
		got[tp] = make(map[string]int)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for m := range s.Chan() {
				gotMu.Lock()
				got[tp][string(m.Body)]++
				gotMu.Unlock()
			}
		}()
	}

	ctx := context.Background()
	acked := make(map[string]map[string]int)
	for _, tp := range topics {
		acked[tp] = make(map[string]int)
	}
	rng := rand.New(rand.NewSource(7))
	publish := func(i int) {
		tp := topics[rng.Intn(len(topics))]
		m := jms.NewMessage(tp)
		m.SetBody([]byte(fmt.Sprintf("r-%d", i)))
		if err := topo.Publish(ctx, i, m); err != nil {
			t.Fatalf("publish %d: %v", i, err)
		}
		acked[tp][fmt.Sprintf("r-%d", i)]++
	}

	n := 0
	for batch := 0; batch < 6; batch++ {
		for i := 0; i < 100; i++ {
			publish(n)
			n++
		}
		switch batch {
		case 1:
			if _, err := topo.AddMember(); err != nil {
				t.Fatalf("add member: %v", err)
			}
		case 3:
			ids := topo.MemberIDs()
			if err := topo.RemoveMember(ids[rng.Intn(len(ids))]); err != nil {
				t.Fatalf("remove member: %v", err)
			}
		}
	}
	st := topo.Stats()
	if st.Rebalances < 2 {
		t.Fatalf("expected at least 2 rebalances, got %d", st.Rebalances)
	}
	if st.TopicsMoved == 0 {
		t.Fatal("rebalances moved no topics")
	}

	// Wait for the acked totals, then compare multisets exactly.
	wantTotal := n
	deadline := time.Now().Add(20 * time.Second)
	for {
		gotMu.Lock()
		total := 0
		for _, m := range got {
			for _, c := range m {
				total += c
			}
		}
		gotMu.Unlock()
		if total >= wantTotal || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, s := range subsByTopic {
		s.Unsubscribe()
	}
	wg.Wait()
	gotMu.Lock()
	defer gotMu.Unlock()
	for tp, want := range acked {
		for body, cnt := range want {
			if got[tp][body] != cnt {
				t.Fatalf("topic %s: %q delivered %d times, acked %d", tp, body, got[tp][body], cnt)
			}
		}
		if len(got[tp]) != len(want) {
			t.Fatalf("topic %s: delivered %d distinct, acked %d", tp, len(got[tp]), len(want))
		}
	}
}

// TestTopologyHashChaosKill drives concurrent publishers with retry
// against a mesh whose members are killed and re-added mid-stream: every
// acked message must be delivered exactly once — the chaos-failover
// acceptance gate at the topology layer.
func TestTopologyHashChaosKill(t *testing.T) {
	topics := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	topo, err := NewTopology(TopologyConfig{
		Kind:    TopologyHash,
		Members: 3,
		Topics:  topics,
		Broker:  broker.Options{SubscriberBuffer: 4096},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topo.Close() }()

	subs := make(map[string]*TopoSub, len(topics))
	for i, tp := range topics {
		s, err := topo.Subscribe(tp, nil, i)
		if err != nil {
			t.Fatal(err)
		}
		subs[tp] = s
	}
	var (
		gotMu sync.Mutex
		got   = make(map[string]map[string]int)
		drnWG sync.WaitGroup
	)
	for tp, s := range subs {
		tp, s := tp, s
		got[tp] = make(map[string]int)
		drnWG.Add(1)
		go func() {
			defer drnWG.Done()
			for m := range s.Chan() {
				gotMu.Lock()
				got[tp][string(m.Body)]++
				gotMu.Unlock()
			}
		}()
	}

	const (
		publishers  = 4
		perPub      = 250
		retryBudget = 2000
	)
	var (
		ackMu sync.Mutex
		acked = make(map[string]map[string]int)
		pubWG sync.WaitGroup
	)
	for _, tp := range topics {
		acked[tp] = make(map[string]int)
	}
	ctx := context.Background()
	for p := 0; p < publishers; p++ {
		p := p
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			rng := rand.New(rand.NewSource(int64(100 + p)))
			for i := 0; i < perPub; i++ {
				tp := topics[rng.Intn(len(topics))]
				body := fmt.Sprintf("p%d-%d", p, i)
				var err error
				for attempt := 0; attempt < retryBudget; attempt++ {
					m := jms.NewMessage(tp)
					m.SetBody([]byte(body))
					if err = topo.Publish(ctx, p, m); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				if err != nil {
					t.Errorf("publisher %d: message %s never accepted: %v", p, body, err)
					return
				}
				ackMu.Lock()
				acked[tp][body]++
				ackMu.Unlock()
			}
		}()
	}

	// Chaos: kill a member, re-add capacity, kill another — racing the
	// publishers above.
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		time.Sleep(20 * time.Millisecond)
		ids := topo.MemberIDs()
		if err := topo.Kill(ids[1]); err != nil {
			t.Errorf("kill %s: %v", ids[1], err)
			return
		}
		time.Sleep(20 * time.Millisecond)
		if _, err := topo.AddMember(); err != nil {
			t.Errorf("re-add: %v", err)
			return
		}
		time.Sleep(20 * time.Millisecond)
		ids = topo.MemberIDs()
		if err := topo.Kill(ids[0]); err != nil {
			t.Errorf("kill %s: %v", ids[0], err)
		}
	}()
	pubWG.Wait()
	<-chaosDone
	if t.Failed() {
		return
	}

	total := publishers * perPub
	deadline := time.Now().Add(20 * time.Second)
	for {
		gotMu.Lock()
		n := 0
		for _, m := range got {
			for _, c := range m {
				n += c
			}
		}
		gotMu.Unlock()
		if n >= total || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, s := range subs {
		s.Unsubscribe()
	}
	drnWG.Wait()

	gotMu.Lock()
	defer gotMu.Unlock()
	lost, dup := 0, 0
	for tp, want := range acked {
		for body, cnt := range want {
			switch g := got[tp][body]; {
			case g < cnt:
				lost++
			case g > cnt:
				dup++
			}
		}
	}
	if lost > 0 || dup > 0 {
		t.Fatalf("chaos run lost %d and duplicated %d acked messages", lost, dup)
	}
	if st := topo.Stats(); st.Rebalances < 2 {
		t.Fatalf("expected >=2 rebalances, got %+v", st)
	}
}

// TestTopologyPSRMembership covers mirror maintenance: a subscriber added
// before a join must also hear publishers that enter at the new member,
// and a graceful leave keeps the remaining mirrors intact.
func TestTopologyPSRMembership(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{
		Kind:    TopologyPSR,
		Members: 2,
		Topics:  []string{"x"},
		Broker:  broker.Options{SubscriberBuffer: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topo.Close() }()
	s, err := topo.Subscribe("x", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pub := func(origin int, body string) {
		m := jms.NewMessage("x")
		m.SetBody([]byte(body))
		if err := topo.Publish(ctx, origin, m); err != nil {
			t.Fatalf("publish %s: %v", body, err)
		}
	}
	pub(0, "a")
	pub(1, "b")
	id, err := topo.AddMember()
	if err != nil {
		t.Fatal(err)
	}
	pub(2, "c") // enters at the new member; mirror must already exist
	if err := topo.RemoveMember(id); err != nil {
		t.Fatal(err)
	}
	pub(0, "d")
	want := map[string]bool{"a": true, "b": true, "c": true, "d": true}
	for i := 0; i < len(want); i++ {
		select {
		case m := <-s.Chan():
			if !want[string(m.Body)] {
				t.Fatalf("unexpected delivery %q", m.Body)
			}
			delete(want, string(m.Body))
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out, undelivered: %v", want)
		}
	}
}

// TestTopologySSRRestart re-homes nothing but must survive a member
// restart: the restarted member's subscribers are re-installed on the
// fresh broker instance and hear post-restart floods.
func TestTopologySSRRestart(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{
		Kind:    TopologySSR,
		Members: 3,
		Topics:  []string{"x"},
		Broker:  broker.Options{SubscriberBuffer: 1024},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topo.Close() }()
	s1, err := topo.Subscribe("x", nil, 1) // homed on member 1
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	m := jms.NewMessage("x")
	m.SetBody([]byte("pre"))
	if err := topo.Publish(ctx, 0, m); err != nil {
		t.Fatal(err)
	}
	ids := topo.MemberIDs()
	if err := topo.Restart(ids[1]); err != nil {
		t.Fatal(err)
	}
	m2 := jms.NewMessage("x")
	m2.SetBody([]byte("post"))
	if err := topo.Publish(ctx, 0, m2); err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{"pre": true, "post": true}
	for i := 0; i < 2; i++ {
		select {
		case d := <-s1.Chan():
			if !want[string(d.Body)] {
				t.Fatalf("unexpected delivery %q", d.Body)
			}
			delete(want, string(d.Body))
		case <-time.After(10 * time.Second):
			t.Fatalf("timed out, undelivered: %v", want)
		}
	}
}

// newTestTopology builds a members-broker mesh of the given kind on topic
// "t", closed with the test.
func newTestTopology(t *testing.T, kind TopologyKind, members int) *Topology {
	t.Helper()
	topo, err := NewTopology(TopologyConfig{Kind: kind, Members: members, Topics: []string{"t"}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = topo.Close() })
	return topo
}

// subscribePerMember homes one match-all subscriber on every member.
func subscribePerMember(t *testing.T, topo *Topology) []*TopoSub {
	t.Helper()
	subs := make([]*TopoSub, len(topo.MemberIDs()))
	for i := range subs {
		s, err := topo.Subscribe("t", filter.All{}, i)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = s
	}
	return subs
}

// corrMessage builds a message on topic "t" with the given correlation ID.
func corrMessage(t *testing.T, corrID string) *jms.Message {
	t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID(corrID); err != nil {
		t.Fatal(err)
	}
	return m
}

// receive takes the next delivery off a merged channel.
func receive(t *testing.T, s *TopoSub) *jms.Message {
	t.Helper()
	select {
	case m, ok := <-s.Chan():
		if !ok {
			t.Fatal("subscription closed")
		}
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a delivery")
	}
	return nil
}

// TestMeshReachesEveryMemberExactlyOnce: one SSR publish is accepted once
// by every member (no echo) and heard once by each member's subscriber.
func TestMeshReachesEveryMemberExactlyOnce(t *testing.T) {
	topo := newTestTopology(t, TopologySSR, 3)
	subs := subscribePerMember(t, topo)
	if err := topo.Publish(context.Background(), 0, corrMessage(t, "only-once")); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if got := receive(t, s); got.Header.CorrelationID != "only-once" {
			t.Errorf("member %d corrID = %q", i, got.Header.CorrelationID)
		}
	}
	st := topo.Stats()
	if st.Forwards != 2 {
		t.Errorf("Forwards = %d, want 2 flood copies", st.Forwards)
	}
	for i, n := range st.MemberReceived {
		if n != 1 {
			t.Errorf("member %d accepted %d copies, want exactly 1", i, n)
		}
	}
}

// TestMeshFilterOnOneMember: a filter homed on one member sees matching
// traffic entering at another, and nothing else.
func TestMeshFilterOnOneMember(t *testing.T) {
	topo := newTestTopology(t, TopologySSR, 3)
	sub, err := topo.Subscribe("t", corrFilter(t, "#7")(), 2)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	// Member 2 commits in publish order, so the second #7 arriving next
	// proves the #8 between them was filtered, not delayed.
	for origin, corrID := range []string{"#7", "#8", "#7"} {
		if err := topo.Publish(ctx, origin, corrMessage(t, corrID)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if got := receive(t, sub); got.Header.CorrelationID != "#7" {
			t.Errorf("delivery %d corrID = %q", i, got.Header.CorrelationID)
		}
	}
	if n := sub.Delivered(); n != 2 {
		t.Errorf("Delivered = %d, want 2", n)
	}
}

func TestMeshParamsAndClose(t *testing.T) {
	for name, cfg := range map[string]TopologyConfig{
		"no kind":      {Members: 2, Topics: []string{"t"}},
		"unknown kind": {Kind: TopologyHash + 1, Members: 2, Topics: []string{"t"}},
		"no members":   {Kind: TopologySSR, Topics: []string{"t"}},
		"no topics":    {Kind: TopologySSR, Members: 2},
	} {
		if _, err := NewTopology(cfg); !errors.Is(err, ErrParams) {
			t.Errorf("%s: err = %v, want ErrParams", name, err)
		}
	}
	for _, kind := range []TopologyKind{TopologyPSR, TopologySSR, TopologyHash} {
		topo, err := NewTopology(TopologyConfig{Kind: kind, Members: 2, Topics: []string{"t"}})
		if err != nil {
			t.Fatal(err)
		}
		if err := topo.Publish(context.Background(), -1, jms.NewMessage("t")); !errors.Is(err, ErrParams) {
			t.Errorf("%v: negative origin err = %v", kind, err)
		}
		if _, err := topo.Subscribe("t", filter.All{}, -1); !errors.Is(err, ErrParams) {
			t.Errorf("%v: negative home err = %v", kind, err)
		}
		if len(topo.Brokers()) != 2 {
			t.Errorf("%v: Brokers = %d", kind, len(topo.Brokers()))
		}
		if err := topo.Close(); err != nil {
			t.Fatal(err)
		}
		if err := topo.Close(); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: double Close err = %v", kind, err)
		}
		if err := topo.Publish(context.Background(), 0, jms.NewMessage("t")); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: Publish after Close err = %v", kind, err)
		}
	}
}

// TestMeshHealsAfterMemberRestart: after Restart the slot is a fresh
// broker that both accepts floods and originates them — subscribers
// installed after the restart on every member hear a publish entering at
// the restarted one.
func TestMeshHealsAfterMemberRestart(t *testing.T) {
	topo := newTestTopology(t, TopologySSR, 3)
	ctx := context.Background()
	if err := topo.Publish(ctx, 0, corrMessage(t, "pre")); err != nil {
		t.Fatal(err)
	}
	if err := topo.Restart("m1"); err != nil {
		t.Fatal(err)
	}
	if err := topo.Restart("m9"); !errors.Is(err, ErrParams) {
		t.Errorf("Restart(unknown) err = %v", err)
	}
	subs := subscribePerMember(t, topo)
	if err := topo.Publish(ctx, 1, corrMessage(t, "final")); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if got := receive(t, s); got.Header.CorrelationID != "final" {
			t.Errorf("member %d corrID = %q", i, got.Header.CorrelationID)
		}
	}
	// The replacement counts from zero; its neighbours kept their history.
	if got, want := topo.Stats().MemberReceived, []uint64{2, 1, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("MemberReceived = %v, want %v", got, want)
	}
}

// TestMeshPreservesTraceID pins that Header.TraceID survives both ways a
// message crosses a member boundary — the SSR flood's clone and the hash
// route to a non-entry owner — so a flight record spans the whole mesh.
func TestMeshPreservesTraceID(t *testing.T) {
	const id = 0xA5A5A5A5
	ctx := context.Background()
	traced := func() *jms.Message {
		m := jms.NewMessage("t")
		m.Header.TraceID = id
		return m
	}

	ssr := newTestTopology(t, TopologySSR, 3)
	subs := subscribePerMember(t, ssr)
	if err := ssr.Publish(ctx, 1, traced()); err != nil {
		t.Fatal(err)
	}
	for i, s := range subs {
		if got := receive(t, s); got.Header.TraceID != id {
			t.Errorf("ssr member %d TraceID = %#x, want %#x", i, got.Header.TraceID, id)
		}
	}

	hash := newTestTopology(t, TopologyHash, 3)
	sub, err := hash.Subscribe("t", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := hash.Owner("t")
	origin := 0
	for i, mid := range hash.MemberIDs() {
		if mid != owner {
			origin = i
		}
	}
	if err := hash.Publish(ctx, origin, traced()); err != nil {
		t.Fatal(err)
	}
	if got := receive(t, sub); got.Header.TraceID != id {
		t.Errorf("hash TraceID = %#x, want %#x", got.Header.TraceID, id)
	}
	if n := hash.Stats().Forwards; n != 1 {
		t.Errorf("hash Forwards = %d, want 1 cross-member route", n)
	}
}

// TestClusterRestartConcurrent is the chaos-coverage leg for SSR restarts:
// Restart of members 1 and 2 racing three publishers on origin 0 and
// subscribe/unsubscribe churn homed on member 2. A flood that meets a
// closing member fails after member 0 may already have accepted its copy,
// so publishers retry and the stable subscriber on member 0 is checked as
// a set: every accepted body arrives, with no loss, deadlock or race.
func TestClusterRestartConcurrent(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{
		Kind:    TopologySSR,
		Members: 3,
		Topics:  []string{"x"},
		Broker:  broker.Options{SubscriberBuffer: 8192},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = topo.Close() }()
	stable, err := topo.Subscribe("x", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var (
		delivered sync.Map
		drainDone = make(chan struct{})
	)
	go func() {
		defer close(drainDone)
		for m := range stable.Chan() {
			delivered.Store(string(m.Body), true)
		}
	}()

	ctx := context.Background()
	const msgs = 300
	var (
		pubWG    sync.WaitGroup
		accMu    sync.Mutex
		accepted = make([]string, 0, msgs)
	)
	for p := 0; p < 3; p++ {
		p := p
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			for i := 0; i < msgs/3; i++ {
				body := fmt.Sprintf("m%d-%d", p, i)
				for {
					m := jms.NewMessage("x")
					m.SetBody([]byte(body))
					if err := topo.Publish(ctx, 0, m); err == nil {
						break
					}
					time.Sleep(time.Millisecond)
				}
				accMu.Lock()
				accepted = append(accepted, body)
				accMu.Unlock()
			}
		}()
	}
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	churnWG.Add(1)
	go func() {
		defer churnWG.Done()
		for {
			select {
			case <-churnStop:
				return
			default:
			}
			// Subscribe fails while member 2 is between Close and its
			// replacement; that is part of the churn.
			if s, err := topo.Subscribe("x", nil, 2); err == nil {
				time.Sleep(2 * time.Millisecond)
				_ = s.Unsubscribe()
			}
		}
	}()
	for r := 0; r < 4; r++ {
		time.Sleep(10 * time.Millisecond)
		if err := topo.Restart(meshMemberID(1 + r%2)); err != nil {
			t.Errorf("restart: %v", err)
		}
	}
	pubWG.Wait()
	close(churnStop)
	churnWG.Wait()

	deadline := time.Now().Add(20 * time.Second)
	for {
		missing := 0
		for _, body := range accepted {
			if _, ok := delivered.Load(body); !ok {
				missing++
			}
		}
		if missing == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d accepted messages never delivered to the stable subscriber", missing)
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = stable.Unsubscribe()
	<-drainDone
}
