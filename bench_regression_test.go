// Regression benchmarks: the small, stable set of hot-path measurements
// `make bench` prints. Unlike the figure benches in bench_test.go (which
// regenerate the paper's tables and report model scalars), these measure
// the implementation itself — publish ingest, dispatch fan-out, the batch
// codec, the mesh and the subscription store. Nothing gates on their
// numbers: the allocation and bytes/sub ceilings are tier-1 tests beside
// the code they pin, and timing comparisons are `make bench-pairs`' job.
package jmsperf_test

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/stress"
	"repro/internal/trace"
	"repro/internal/wire"
)

// regressionBroker is the shared fixture: a fast-engine broker with one
// wildcard subscriber draining deliveries, the minimal end-to-end
// publish→dispatch path.
func regressionBroker(b *testing.B, engine broker.Engine, nonMatching int) *broker.Broker {
	b.Helper()
	br := broker.New(broker.Options{
		InFlight: 1024, SubscriberBuffer: 1 << 16,
		Engine: engine, Shards: 4,
	})
	b.Cleanup(func() { _ = br.Close() })
	if err := br.ConfigureTopic("t"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nonMatching; i++ {
		f, err := filter.NewCorrelationID("#never-" + strconv.Itoa(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := br.Subscribe("t", f); err != nil {
			b.Fatal(err)
		}
	}
	sub, err := br.Subscribe("t", nil)
	if err != nil {
		b.Fatal(err)
	}
	go func() {
		for range sub.Chan() {
		}
	}()
	return br
}

// BenchmarkRegressionPublish is the per-message publish path on the fast
// engine: one broker.Publish per message, one in-flight slot each.
func BenchmarkRegressionPublish(b *testing.B) {
	br := regressionBroker(b, broker.EngineFast, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish(ctx, jms.NewMessage("t")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionPublishBatch16 is the batched publish path: 16
// messages per broker.PublishBatch, one in-flight slot per batch. Its
// per-message cost against BenchmarkRegressionPublish is the batching win
// the jmsbench -compare row quantifies end to end.
func BenchmarkRegressionPublishBatch16(b *testing.B) {
	const batch = 16
	br := regressionBroker(b, broker.EngineFast, 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		// A fresh slice per call, as a producer building each batch would
		// have; PublishBatch copies the pointers and hands the slice back.
		msgs := make([]*jms.Message, batch)
		for j := range msgs {
			msgs[j] = jms.NewMessage("t")
		}
		if err := br.PublishBatch(ctx, msgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionDispatch is the filter-scan dispatch stage on the
// faithful engine: 64 non-matching correlation-ID filters plus one
// wildcard, the paper's n_fltr cost per published message.
func BenchmarkRegressionDispatch(b *testing.B) {
	br := regressionBroker(b, broker.EngineFaithful, 64)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := br.Publish(ctx, jms.NewMessage("t")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionBatchEncode measures the batch codec's encode side:
// a 16-message batch appended into a pooled buffer, the client
// PublishBatch hot path.
func BenchmarkRegressionBatchEncode(b *testing.B) {
	msgs := make([]*jms.Message, 16)
	for i := range msgs {
		m := jms.NewMessage("t")
		m.SetBody(make([]byte, 128))
		if err := m.SetStringProperty("region", "eu"); err != nil {
			b.Fatal(err)
		}
		msgs[i] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := wire.GetBuffer()
		*buf = wire.AppendBatch((*buf)[:0], msgs)
		wire.PutBuffer(buf)
	}
}

// BenchmarkRegressionDeliver measures the delivery fast path's per-frame
// cost: one MESSAGE frame (prologue + delivery header + message) encoded
// into a pooled buffer, exactly what the server's connection writer does
// per replica. The steady state must be allocation-free — held at 0 by
// internal/wire's TestAppendDeliveryAllocs.
func BenchmarkRegressionDeliver(b *testing.B) {
	m := jms.NewMessage("t")
	m.SetBody(make([]byte, 128))
	if err := m.SetStringProperty("region", "eu"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp := wire.GetBuffer()
		buf := append((*bp)[:0], 0, 0, 0, 0, byte(wire.FrameMessage))
		buf = wire.AppendDelivery(buf, 7, uint64(i), m)
		*bp = buf
		wire.PutBuffer(bp)
	}
}

// BenchmarkRegressionEndToEnd is the full wire loop on TCP loopback:
// batching publisher clients → server ingress → fast-engine dispatch →
// connection writer egress → subscriber client. ns/op is the end-to-end
// per-message cost; the msgs/s/core metric is the throughput headline the
// IoT-edge broker benchmarking literature reports, normalized by
// GOMAXPROCS so trajectory points from different hosts stay comparable.
func BenchmarkRegressionEndToEnd(b *testing.B) {
	const batch = 16
	const publishers = 4
	br := broker.New(broker.Options{
		InFlight: 1024, SubscriberBuffer: 1 << 15,
		Engine: broker.EngineFast, Shards: 4,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := wire.Serve(br, ln)
	b.Cleanup(func() {
		_ = srv.Close()
		_ = br.Close()
	})
	ctx := context.Background()

	subCl, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = subCl.Close() })
	if err := subCl.ConfigureTopic(ctx, "t"); err != nil {
		b.Fatal(err)
	}
	sub, err := subCl.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 1<<15)
	if err != nil {
		b.Fatal(err)
	}

	pubs := make([]*client.Client, publishers)
	for i := range pubs {
		if pubs[i], err = client.Dial(ln.Addr().String()); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func(c *client.Client) func() {
			return func() { _ = c.Close() }
		}(pubs[i]))
	}

	// Round b.N up to a whole number of batches per publisher.
	perPub := (b.N + publishers*batch - 1) / (publishers * batch) * batch
	total := perPub * publishers

	b.ReportAllocs()
	b.ResetTimer()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < total; {
			if _, ok := <-sub.Chan(); !ok {
				return
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for _, p := range pubs {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			msgs := make([]*jms.Message, batch)
			for sent := 0; sent < perPub; sent += batch {
				for j := range msgs {
					m := jms.NewMessage("t")
					m.SetBody(make([]byte, 128))
					msgs[j] = m
				}
				if err := c.PublishBatch(ctx, msgs); err != nil {
					b.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	<-done
	elapsed := b.Elapsed()
	b.StopTimer()
	if s := elapsed.Seconds(); s > 0 {
		b.ReportMetric(float64(total)/s/float64(runtime.GOMAXPROCS(0)), "msgs/s/core")
	}
}

// e2eStack is one full wire loop — broker, TCP server, one draining
// subscriber and a set of batching publishers — optionally with a flight
// recorder attached to both the broker and wire layers. It is the
// fixture for the tracing-overhead estimate, which needs two such loops
// side by side.
type e2eStack struct {
	pubs []*client.Client
	sub  *client.Subscription
}

func newE2EStack(b *testing.B, publishers int, rec *trace.Recorder) *e2eStack {
	b.Helper()
	br := broker.New(broker.Options{
		InFlight: 1024, SubscriberBuffer: 1 << 15,
		Engine: broker.EngineFast, Shards: 4,
		Tracer: rec,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := wire.ServeWith(br, ln, wire.ServeOptions{Tracer: rec})
	b.Cleanup(func() {
		_ = srv.Close()
		_ = br.Close()
	})
	ctx := context.Background()

	subCl, err := client.Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = subCl.Close() })
	if err := subCl.ConfigureTopic(ctx, "t"); err != nil {
		b.Fatal(err)
	}
	sub, err := subCl.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 1<<15)
	if err != nil {
		b.Fatal(err)
	}
	pubs := make([]*client.Client, publishers)
	for i := range pubs {
		if pubs[i], err = client.Dial(ln.Addr().String()); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func(c *client.Client) func() {
			return func() { _ = c.Close() }
		}(pubs[i]))
	}
	return &e2eStack{pubs: pubs, sub: sub}
}

// pump pushes perPub messages through each publisher in batches, waits
// for the subscriber to drain all of them, and returns the wall time.
func (s *e2eStack) pump(b *testing.B, perPub, batch int) time.Duration {
	ctx := context.Background()
	total := perPub * len(s.pubs)
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < total; {
			if _, ok := <-s.sub.Chan(); !ok {
				return
			}
			n++
		}
	}()
	var wg sync.WaitGroup
	for _, p := range s.pubs {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			msgs := make([]*jms.Message, batch)
			for sent := 0; sent < perPub; sent += batch {
				for j := range msgs {
					m := jms.NewMessage("t")
					m.SetBody(make([]byte, 128))
					msgs[j] = m
				}
				if err := c.PublishBatch(ctx, msgs); err != nil {
					b.Error(err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	<-done
	return time.Since(start)
}

// BenchmarkRegressionEndToEndTraced estimates what tracing costs: the
// same wire loop as BenchmarkRegressionEndToEnd run twice over — once
// bare and once with a flight recorder at the jmsd default sampling rate
// (1 in 64) — in interleaved chunks whose order alternates every round,
// so host drift and the cold-phase penalty land on both loops equally.
// overhead_pct compares the two loops' best (minimum) per-round times —
// the standard noise-robust estimator, since scheduler and GC noise on a
// shared host only ever adds time — clamped at zero. It is reported, not
// gated: the repository benchmark's trace.cpu_overhead_pct row is the
// reading of what tracing costs.
func BenchmarkRegressionEndToEndTraced(b *testing.B) {
	const batch = 16
	const publishers = 4
	const rounds = 6

	bare := newE2EStack(b, publishers, nil)
	rec := trace.New(trace.Config{SampleEvery: 64})
	b.Cleanup(rec.Close)
	traced := newE2EStack(b, publishers, rec)

	// Round b.N up to whole batches per publisher, split across rounds.
	perPub := (b.N + publishers*batch - 1) / (publishers * batch) * batch
	perRound := (perPub/rounds + batch - 1) / batch * batch

	// Untimed warmup: connections, pools, arenas and the runtime settle on
	// both stacks before anything is compared, so the later-built stack
	// does not pay its cold-start inside the measurement.
	bare.pump(b, perRound, batch)
	traced.pump(b, perRound, batch)

	b.ReportAllocs()
	b.ResetTimer()
	best := func(cur, d time.Duration) time.Duration {
		if cur == 0 || d < cur {
			return d
		}
		return cur
	}
	var bareBest, tracedBest, tracedTotal time.Duration
	for r := 0; r < rounds; r++ {
		if r%2 == 0 {
			bareBest = best(bareBest, bare.pump(b, perRound, batch))
			d := traced.pump(b, perRound, batch)
			tracedBest, tracedTotal = best(tracedBest, d), tracedTotal+d
		} else {
			d := traced.pump(b, perRound, batch)
			tracedBest, tracedTotal = best(tracedBest, d), tracedTotal+d
			bareBest = best(bareBest, bare.pump(b, perRound, batch))
		}
	}
	b.StopTimer()
	if b.Failed() || bareBest <= 0 || tracedBest <= 0 {
		return
	}
	// Equal message counts per round, so best-time ratio is the
	// best-throughput ratio.
	overhead := (1 - bareBest.Seconds()/tracedBest.Seconds()) * 100
	if overhead < 0 {
		overhead = 0
	}
	total := perRound * rounds * publishers
	b.ReportMetric(overhead, "overhead_pct")
	b.ReportMetric(float64(total)/tracedTotal.Seconds()/float64(runtime.GOMAXPROCS(0)), "msgs/s/core")
}

// meshFixture boots the 3-member SSR wire mesh the mesh rows share: one
// broker, wire server and mesh forwarder per member on TCP loopback, one
// subscriber per member, and a publisher connection to member 0.
func meshFixture(b *testing.B) (pub *client.Client, subs []*client.Subscription) {
	const members = 3
	lns := make([]net.Listener, members)
	addrs := make([]string, members)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	subs = make([]*client.Subscription, members)
	ctx := context.Background()
	for i := range lns {
		br := broker.New(broker.Options{InFlight: 1024, SubscriberBuffer: 1 << 15})
		if err := br.ConfigureTopic("t"); err != nil {
			b.Fatal(err)
		}
		mesh, err := cluster.NewWireMesh(cluster.WireMeshConfig{
			Kind:  cluster.TopologySSR,
			Self:  i,
			Addrs: addrs,
		})
		if err != nil {
			b.Fatal(err)
		}
		srv := wire.ServeWith(br, lns[i], wire.ServeOptions{Forwarder: mesh})
		b.Cleanup(func() {
			_ = mesh.Close()
			_ = srv.Close()
			_ = br.Close()
		})
		c, err := client.Dial(addrs[i])
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { _ = c.Close() })
		if subs[i], err = c.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 1<<15); err != nil {
			b.Fatal(err)
		}
	}
	pub, err := client.Dial(addrs[0])
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = pub.Close() })
	return pub, subs
}

// drainMesh returns a channel closed once every subscriber has received n
// messages. The subscribers drain side by side: left undrained, one would
// push back through its member into the origin's forward window.
func drainMesh(subs []*client.Subscription, n int) <-chan struct{} {
	var wg sync.WaitGroup
	for _, sub := range subs {
		wg.Add(1)
		go func(sub *client.Subscription) {
			defer wg.Done()
			for got := 0; got < n; got++ {
				if _, ok := <-sub.Chan(); !ok {
					return
				}
			}
		}(sub)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	return done
}

// BenchmarkRegressionMesh is the replication-mesh round trip: one publish
// at a time enters a 3-member SSR wire mesh, is wrapped in FORWARD frames,
// flooded to both peers over TCP loopback, and dispatched to one
// subscriber per member. With a single publish outstanding nothing can
// share a syscall, so ns/op is the cost of one forward round trip plus all
// three deliveries — the latency floor of the forward hop.
// BenchmarkRegressionMeshWindowed is the throughput row.
func BenchmarkRegressionMesh(b *testing.B) {
	pub, subs := meshFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	done := drainMesh(subs, b.N)
	for i := 0; i < b.N; i++ {
		if err := pub.Publish(ctx, jms.NewMessage("t")); err != nil {
			b.Fatal(err)
		}
	}
	<-done
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s/float64(runtime.GOMAXPROCS(0)), "msgs/s/core")
	}
}

// BenchmarkRegressionMeshWindowed drives the same mesh the way a loaded
// publisher does: 8 PublishBatch(16) calls outstanding on the one publisher
// connection, so the forwards of successive batches share the peer links'
// vectored writes and the peers work while the origin matches and
// delivers. One op is one message.
func BenchmarkRegressionMeshWindowed(b *testing.B) {
	pub, subs := meshFixture(b)
	const lanes, batchSize = 8, 16
	batches := (b.N + batchSize - 1) / batchSize
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	done := drainMesh(subs, batches*batchSize)
	var claimed atomic.Int64
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for claimed.Add(1) <= int64(batches) {
				msgs := make([]*jms.Message, batchSize)
				for i := range msgs {
					msgs[i] = jms.NewMessage("t")
				}
				if err := pub.PublishBatch(ctx, msgs); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if b.Failed() {
		return
	}
	<-done
	b.StopTimer()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(batches*batchSize)/s/float64(runtime.GOMAXPROCS(0)), "msgs/s/core")
	}
}

// decodeBenchMessage is the anatomy the repository benchmark publishes and
// the paper's two filter families match on: a correlation ID, one string
// property and a 128-byte body.
func decodeBenchMessage(b *testing.B) *jms.Message {
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("dev-000042"); err != nil {
		b.Fatal(err)
	}
	if err := m.SetStringProperty("region", "eu"); err != nil {
		b.Fatal(err)
	}
	m.SetBody(make([]byte, 128))
	return m
}

// BenchmarkRegressionBatchDecode measures the decode side of a batch:
// view-parse + validate the 16-message batch frame, then materialize
// through a GC-owned connection arena into a reused destination slice. The
// arena carves messages, property sections and bytes from chunks, so a
// batch costs at most one chunk of each kind — three allocations — held by
// internal/wire's TestArenaAllocationBudget. The server decodes through a
// recycling arena instead, whose slabs come back once the batch's
// deliveries are written; internal/wire's TestRecycleSteadyStateAllocs pins
// that path, decode to write, at zero.
func BenchmarkRegressionBatchDecode(b *testing.B) {
	msgs := make([]*jms.Message, 16)
	for i := range msgs {
		msgs[i] = decodeBenchMessage(b)
	}
	payload := wire.EncodeBatch(msgs)
	arena := wire.NewMessageArena()
	dst := make([]*jms.Message, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = arena.AppendBatchMessages(dst[:0], payload)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegressionDeliveryDecode is the client read loop's share: one
// MESSAGE frame payload materialized through the connection arena. Chunks
// amortize across deliveries, so the ceiling is one allocation per delivery.
func BenchmarkRegressionDeliveryDecode(b *testing.B) {
	payload := wire.EncodeDelivery(7, 0, decodeBenchMessage(b))
	arena := wire.NewMessageArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, m, err := arena.DecodeDeliveryArena(payload)
		if err != nil {
			b.Fatal(err)
		}
		decodeSink = m
	}
}

var decodeSink *jms.Message

// BenchmarkRegressionFanoutDecode is the client read loop's share of a
// fan-out, fanout_large's subscriber side: one MESSAGE_FANOUT payload for 32
// subscriptions with a 4 KiB body, decoded once through the connection arena
// into the last of 32 messages made in one slice, and the other 31 filled
// with its copy-on-write views. A fan-out costs the body and that slice
// whatever R is (internal/client's TestFanoutDispatchAllocs holds it).
func BenchmarkRegressionFanoutDecode(b *testing.B) {
	m := decodeBenchMessage(b)
	m.SetBody(make([]byte, 4<<10))
	refs := make([]wire.DeliveryRef, 32)
	for i := range refs {
		refs[i].SubID = uint64(i + 1)
	}
	payload := wire.AppendFanout(nil, refs, m)
	arena := wire.NewMessageArena()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var v wire.MessageView
		var err error
		if refs, v, err = wire.ParseFanout(refs[:0], payload); err != nil {
			b.Fatal(err)
		}
		msgs := make([]jms.Message, len(refs))
		m := &msgs[len(refs)-1]
		if err := arena.MaterializeInto(m, &v); err != nil {
			b.Fatal(err)
		}
		m.SharedInto(msgs[:len(refs)-1])
		viewSink = msgs
	}
}

var viewSink []jms.Message

// BenchmarkRegressionSubscriptionStore pins the subscription store's two
// scale numbers at the 10^5 population: ns/op is the epoch-snapshot index
// rebuild after a 64-op churn batch (lazy, batch-proportional — not
// population-proportional), and the bytes/sub metric is the marginal
// live-heap cost per subscription with interned filters. bytes/sub is
// held under 1 KiB absolutely by internal/stress's TestBytesPerSubscription,
// so a footprint regression cannot ratchet in across tolerant relative
// steps.
func BenchmarkRegressionSubscriptionStore(b *testing.B) {
	const population = 100_000
	bytesPerSub, err := stress.BytesPerSub(population)
	if err != nil {
		b.Fatal(err)
	}
	p, err := stress.BuildPopulation(population, 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	rng := rand.New(rand.NewSource(1))
	p.Topic.Index() // settle the initial build
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := p.Churn(rng, 64); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		p.Topic.Index()
	}
	b.StopTimer()
	b.ReportMetric(bytesPerSub, "bytes/sub")
}

// BenchmarkRegressionDialSubscribe is a connection's set-up cost against a
// live wire server over TCP loopback: Dial, ConfigureTopic (a duplicate,
// answered with an error, after the first op), one Subscribe and Close.
// allocs/op and B/op, client and server together, are the deterministic
// part of the benchmark's setup_s.
func BenchmarkRegressionDialSubscribe(b *testing.B) {
	br := broker.New(broker.Options{Engine: broker.EngineFast})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := wire.Serve(br, ln)
	b.Cleanup(func() {
		_ = srv.Close()
		_ = br.Close()
	})
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := client.Dial(ln.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		var se *client.ServerError
		if err := c.ConfigureTopic(ctx, "t"); err != nil && !errors.As(err, &se) {
			b.Fatal(err)
		}
		if _, err := c.Subscribe(ctx, "t", wire.FilterSpec{Mode: wire.FilterNone}, 0); err != nil {
			b.Fatal(err)
		}
		if err := c.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
