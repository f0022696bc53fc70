package cluster

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/leakcheck"
	"repro/internal/wire"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// memberLog records what one member's subscriber was handed: how often each
// body, and whether any lane's sequence numbers ever failed to increase.
type memberLog struct {
	mu      sync.Mutex
	counts  map[string]int
	total   int
	lastSeq map[int]int
	reorder string
}

// follow subscribes to "t" on the member's broker and logs every delivery.
// Bodies are "lane/seq".
func follow(t *testing.T, b *broker.Broker) *memberLog {
	t.Helper()
	sub, err := b.Subscribe("t", filter.All{})
	if err != nil {
		t.Fatal(err)
	}
	ml := &memberLog{counts: make(map[string]int), lastSeq: make(map[int]int)}
	go func() {
		for m := range sub.Chan() {
			var lane, seq int
			_, _ = fmt.Sscanf(string(m.Body), "%d/%d", &lane, &seq)
			ml.mu.Lock()
			ml.counts[string(m.Body)]++
			ml.total++
			if last, ok := ml.lastSeq[lane]; ok && seq <= last && ml.reorder == "" {
				ml.reorder = fmt.Sprintf("lane %d: seq %d after %d", lane, seq, last)
			}
			ml.lastSeq[lane] = seq
			ml.mu.Unlock()
		}
	}()
	return ml
}

func (ml *memberLog) waitTotal(t *testing.T, member, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		ml.mu.Lock()
		got := ml.total
		ml.mu.Unlock()
		if got >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("member %d: %d deliveries, want %d", member, got, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func waitInflightZero(t *testing.T, wm *WireMesh) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for wm.Stats().ForwardInflight != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ForwardInflight = %d after the run, want 0", wm.Stats().ForwardInflight)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// laneBatch builds one batch for a lane: bodies "lane/seq", stamped with the
// lane's publish-dedupe identity so a retry is recognisable.
func laneBatch(lane, firstSeq, n int) []*jms.Message {
	msgs := make([]*jms.Message, n)
	for i := range msgs {
		m := jms.NewMessage("t")
		m.SetBody([]byte(fmt.Sprintf("%d/%d", lane, firstSeq+i)))
		_ = m.SetStringProperty(wire.PubIDProperty, fmt.Sprintf("lane-%d", lane))
		_ = m.SetInt64Property(wire.PubSeqProperty, int64(firstSeq+i))
		msgs[i] = m
	}
	return msgs
}

// TestWireMeshWindowOrder keeps a window of forwards open — 8 lanes of
// PublishBatch(16) on one publisher connection into a 3-member SSR mesh —
// and checks what pipelining could break: on every member each lane's
// sequence is strictly increasing, and deliveries equal acks.
func TestWireMeshWindowOrder(t *testing.T) {
	nodes := startWireMesh(t, 3, TopologySSR, []string{"t"})
	logs := make([]*memberLog, len(nodes))
	for i, nd := range nodes {
		logs[i] = follow(t, nd.b)
	}
	c, err := client.Dial(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const lanes, batches, batchSize = 8, 40, 16
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			for b := 0; b < batches; b++ {
				if err := c.PublishBatch(context.Background(), laneBatch(lane, 1+b*batchSize, batchSize)); err != nil {
					t.Errorf("lane %d batch %d: %v", lane, b, err)
					return
				}
			}
		}(lane)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	const acked = lanes * batches * batchSize
	for i, ml := range logs {
		ml.waitTotal(t, i, acked)
		ml.mu.Lock()
		if ml.total != acked || len(ml.counts) != acked {
			t.Errorf("member %d: %d deliveries of %d distinct messages, want %d of each", i, ml.total, len(ml.counts), acked)
		}
		if ml.reorder != "" {
			t.Errorf("member %d reordered a publisher: %s", i, ml.reorder)
		}
		ml.mu.Unlock()
	}
	st := nodes[0].mesh.Stats()
	if st.ForwardedOut != 2*lanes*batches || st.ForwardErrors != 0 {
		t.Errorf("ForwardedOut = %d, ForwardErrors = %d; want %d, 0", st.ForwardedOut, st.ForwardErrors, 2*lanes*batches)
	}
	waitInflightZero(t, nodes[0].mesh)
}

// TestWireMeshPeerKilledMidWindow kills one peer's server while 8 lanes
// keep a window of stamped batches open at member 0, revives it, and lets
// every lane retry until acked. Each publish attempt must end one way or the
// other: acked and present on all three members, or answered ERROR and
// absent locally. While the peer is down nothing may be acked — an ack never
// precedes its last forward-ack — and the retries of rejected batches are
// not duplicated on the members that stayed up. The kill is count-based:
// every lane parks on a gate a third of the way in, the peer dies while all
// of them are parked, and it is revived only once every lane has been
// rejected at least once and 100 ms have passed.
func TestWireMeshPeerKilledMidWindow(t *testing.T) {
	nodes := startWireMesh(t, 3, TopologySSR, []string{"t"})
	logs := make([]*memberLog, len(nodes))
	for i, nd := range nodes {
		logs[i] = follow(t, nd.b)
	}
	c, err := client.Dial(nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const lanes, batches, batchSize = 8, 30, 4
	var (
		rejected      atomic.Int64
		lanesRejected atomic.Int64
		down          atomic.Bool
		parked, wg    sync.WaitGroup
	)
	gate := make(chan struct{})
	parked.Add(lanes)
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			seenReject := false
			for b := 0; b < batches; b++ {
				if b == batches/3 {
					parked.Done()
					<-gate
				}
				for attempt := 0; ; attempt++ {
					// A fresh encoding of the same stamped messages: the
					// broker owns what it was handed.
					wasDown := down.Load()
					err := c.PublishBatch(context.Background(), laneBatch(lane, 1+b*batchSize, batchSize))
					if err == nil {
						if wasDown && down.Load() {
							t.Errorf("lane %d batch %d acked while a peer was down", lane, b)
						}
						break
					}
					rejected.Add(1)
					if !seenReject {
						seenReject = true
						lanesRejected.Add(1)
					}
					if attempt > 5000 {
						t.Errorf("lane %d batch %d never accepted: %v", lane, b, err)
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(lane)
	}

	// Kill member 2's server while every lane is parked (its broker, and so
	// its subscriber's log, survive), release the lanes into the outage,
	// then revive it on the same address.
	parked.Wait()
	_ = nodes[2].srv.Close()
	down.Store(true)
	close(gate)
	killed := time.Now()
	for lanesRejected.Load() < lanes || time.Since(killed) < 100*time.Millisecond {
		if time.Since(killed) > 10*time.Second {
			t.Errorf("only %d of %d lanes rejected while the peer was down", lanesRejected.Load(), lanes)
			break
		}
		time.Sleep(time.Millisecond)
	}
	down.Store(false)
	ln, err := net.Listen("tcp", nodes[2].addr)
	if err != nil {
		t.Fatalf("cannot rebind %s: %v", nodes[2].addr, err)
	}
	revived := wire.Serve(nodes[2].b, ln)
	defer revived.Close()
	wg.Wait()
	if t.Failed() {
		return
	}

	if rejected.Load() == 0 {
		t.Fatal("no publish was rejected while the peer was down")
	}
	const acked = lanes * batches * batchSize
	for i, ml := range logs {
		ml.waitTotal(t, i, acked)
	}
	// Let a duplicate, if there is one, arrive before counting.
	time.Sleep(50 * time.Millisecond)
	for i, ml := range logs {
		ml.mu.Lock()
		if len(ml.counts) != acked {
			t.Errorf("member %d holds %d distinct messages, want all %d acked", i, len(ml.counts), acked)
		}
		// Members 0 and 1 stayed up: a rejected attempt published nothing
		// at the origin, and the peer's dedupe table swallows the retry of
		// what it had already accepted. The killed member lost its table
		// with its server, so it may see a batch it accepted but never got
		// to ack once more.
		if i < 2 && ml.total != acked {
			t.Errorf("member %d: %d deliveries for %d acked messages", i, ml.total, acked)
		}
		ml.mu.Unlock()
	}
	st := nodes[0].mesh.Stats()
	if st.ForwardErrors == 0 || st.Reconnects == 0 {
		t.Errorf("ForwardErrors = %d, Reconnects = %d; the kill must show in both", st.ForwardErrors, st.Reconnects)
	}
	waitInflightZero(t, nodes[0].mesh)
}

// TestHashRouterOwnerAllocs pins Owner at zero allocations on both routes:
// the ring lookup and the rendezvous fallback.
func TestHashRouterOwnerAllocs(t *testing.T) {
	hr, err := NewHashRouter(3, []string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	sink := 0
	for _, topic := range []string{"b", "not-in-the-ring"} {
		if n := testing.AllocsPerRun(100, func() { sink += hr.Owner(topic) }); n != 0 {
			t.Errorf("Owner(%q) = %v allocs/op, want 0", topic, n)
		}
	}
	_ = sink
}
