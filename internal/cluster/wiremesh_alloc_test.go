//go:build !race

// The race detector's sync.Pool drops a quarter of Puts on purpose, so the
// pooled FORWARD frames and waiters allocate under -race; the mesh's
// ceilings are measured without it.

package cluster

import (
	"context"
	"sync"
	"testing"

	"repro/internal/client"
	"repro/internal/jms"
	"repro/internal/wire"
)

// allocMesh is BenchmarkRegressionMesh's fixture: a 3-member SSR wire mesh,
// one subscriber connection per member, a publisher connection to member 0.
func allocMesh(t *testing.T) (pub *client.Client, subs []*client.Subscription) {
	nodes := startWireMesh(t, 3, TopologySSR, []string{"t"})
	dial := func(addr string) *client.Client {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = c.Close() })
		return c
	}
	subs = make([]*client.Subscription, len(nodes))
	for i, nd := range nodes {
		var err error
		subs[i], err = dial(nd.addr).Subscribe(context.Background(), "t", wire.FilterSpec{Mode: wire.FilterNone}, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
	}
	return dial(nodes[0].addr), subs
}

// receiveAll takes n deliveries from every subscriber.
func receiveAll(t *testing.T, subs []*client.Subscription, n int) {
	for _, sub := range subs {
		for range n {
			if _, ok := <-sub.Chan(); !ok {
				t.Fatal("subscription closed")
			}
		}
	}
}

// TestWireMeshPublishAllocs pins one serial publish through the mesh —
// ingress, FORWARD to both peers, three deliveries and their client-side
// decode — at 15 allocations, the ceiling `make bench` used to enforce (7
// measured when it became a test).
func TestWireMeshPublishAllocs(t *testing.T) {
	pub, subs := allocMesh(t)
	allocs := testing.AllocsPerRun(200, func() {
		if err := pub.Publish(context.Background(), jms.NewMessage("t")); err != nil {
			t.Fatal(err)
		}
		receiveAll(t, subs, 1)
	})
	t.Logf("serial mesh publish: %v allocs", allocs)
	if allocs > 15 {
		t.Errorf("serial mesh publish: %v allocs, budget 15", allocs)
	}
}

// TestWireMeshWindowedAllocs pins a loaded publisher's window — 8
// PublishBatch(16) calls outstanding on the one connection, so forwards
// share the peer links' vectored writes — at 5 allocations per message,
// the messages themselves included (1.8 measured when it became a test).
func TestWireMeshWindowedAllocs(t *testing.T) {
	const lanes, batchSize = 8, 16
	pub, subs := allocMesh(t)
	perWindow := testing.AllocsPerRun(20, func() {
		var wg sync.WaitGroup
		for range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				msgs := make([]*jms.Message, batchSize)
				for i := range msgs {
					msgs[i] = jms.NewMessage("t")
				}
				if err := pub.PublishBatch(context.Background(), msgs); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow() // a batch was refused: its deliveries never come
		}
		receiveAll(t, subs, lanes*batchSize)
	})
	perMsg := perWindow / (lanes * batchSize)
	t.Logf("windowed mesh publish: %.2f allocs/msg", perMsg)
	if perMsg > 5 {
		t.Errorf("windowed mesh publish: %.2f allocs/msg, budget 5", perMsg)
	}
}
