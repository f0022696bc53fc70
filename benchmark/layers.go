package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/selector"
	"repro/internal/stress"
	"repro/internal/topic"
	"repro/internal/wire"
)

// The sinks keep replayed calls' results alive so the compiler cannot drop the
// calls. They are typed: boxing a string or a large integer into an interface
// would put an allocation inside the timed call.
var (
	sinkPtr  any
	sinkU64  uint64
	sinkBool bool
	sinkStr  string
	sinkTri  selector.Tri
)

// timeOp times fn from a single goroutine: it sizes a repetition to about a
// tenth of budget, runs five, and returns the median nanoseconds per call
// and the number of calls behind it.
func timeOp(budget time.Duration, fn func()) (nsPerOp float64, calls int) {
	run := func(n int) time.Duration {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t)
	}
	n := 1
	for run(n) < budget/10 && n < 1<<26 {
		n *= 2
	}
	const reps = 5
	per := make([]float64, reps)
	for i := range per {
		per[i] = float64(run(n)) / float64(n)
	}
	return median(per), n * reps
}

// allocsPerOp counts heap allocations per call of fn over n calls. Only
// meaningful while nothing else in the process allocates, which holds during
// replay: no stack is running.
func allocsPerOp(n int, fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func buildFilter(spec wire.FilterSpec) (filter.Filter, error) {
	switch spec.Mode {
	case wire.FilterCorrelationID:
		return filter.NewCorrelationID(spec.Expr)
	case wire.FilterSelector:
		return filter.NewProperty(spec.Expr)
	}
	return nil, nil // match-all
}

// probeFilters are the filters the selector and filter rows replay: the
// workload's own non-matching ranges and selectors where it has them, else
// one fixed filter of each of the paper's two types.
func probeFilters(in inputs) (ranges, selectors []wire.FilterSpec) {
	for _, s := range in.idle {
		switch {
		case s.Mode == wire.FilterSelector:
			selectors = append(selectors, s)
		case strings.Contains(s.Expr, "["):
			ranges = append(ranges, s)
		}
	}
	if len(ranges) == 0 {
		ranges = []wire.FilterSpec{{Mode: wire.FilterCorrelationID, Expr: "dev-[7;13]"}}
	}
	if len(selectors) == 0 {
		selectors = []wire.FilterSpec{{Mode: wire.FilterSelector, Expr: "region = 'z1'"}}
	}
	return ranges, selectors
}

// memberPopulation is the population one broker holds: the non-matching
// subscriptions and its share of the matching ones, idle first as set-up
// installs them.
func memberPopulation(w *workload, in inputs) []wire.FilterSpec {
	return append(append([]wire.FilterSpec(nil), in.idle...), in.matching[:w.r/w.members]...)
}

// installPopulation subscribes a population copies times on r.
func installPopulation(r *topic.Registry, population []wire.FilterSpec, copies int) ([]*topic.Subscription, error) {
	var subs []*topic.Subscription
	for c := 0; c < copies; c++ {
		for _, spec := range population {
			f, err := buildFilter(spec)
			if err != nil {
				return nil, err
			}
			s, err := r.Subscribe(topicName, f, nil)
			if err != nil {
				return nil, err
			}
			subs = append(subs, s)
		}
	}
	return subs, nil
}

// replay is Part A of the traced run: with the workload's exact message
// shape and subscription population, time single-goroutine calls into each
// layer's public functions. budget is the time for one row. Every call group
// is a span under parent.
func replay(w *workload, in inputs, budget time.Duration, log *spanLog, parent int) (results, error) {
	res := results{}
	row := func(name string, scale float64, fn func()) {
		log.within("replay:"+name, parent, func() {
			ns, n := timeOp(budget, fn)
			res.put(perLayerDefs, name, ns*scale, n)
		})
	}
	msg := in.newMessage()
	putStamp(msg.Body, 1, 0, 1)
	msg.Header.TraceID = 0x5eed
	batch := make([]*jms.Message, satBatch)
	for i := range batch {
		batch[i] = msg
	}

	// wire: ingress side.
	payload := wire.EncodeMessage(msg)
	batchPayload := wire.EncodeBatch(batch)
	var frames bytes.Buffer
	nFrames := max(16, min(4096, (4<<20)/(len(payload)+13)))
	for i := 0; i < nFrames; i++ {
		reqAndBody := append(wire.EncodeU64(uint64(i)), payload...)
		if err := wire.WriteFrame(&frames, wire.Frame{Type: wire.FramePublish, Payload: reqAndBody}); err != nil {
			return nil, err
		}
	}
	row("wire.frame_read_ns", 1/float64(nFrames), func() {
		fr := wire.NewFrameReader(bytes.NewReader(frames.Bytes()))
		for i := 0; i < nFrames; i++ {
			if _, err := fr.Next(); err != nil {
				panic(err)
			}
		}
	})
	row("wire.view_parse_ns", 1, func() {
		v, err := wire.ParseMessageView(payload)
		if err != nil {
			panic(err)
		}
		sinkU64 = v.MessageID()
	})
	arena := wire.NewMessageArena()
	dst := make([]*jms.Message, 0, satBatch)
	decodeBatch := func() {
		var err error
		if dst, err = arena.AppendBatchMessages(dst[:0], batchPayload); err != nil {
			panic(err)
		}
	}
	row("wire.batch_decode_ns_per_msg", 1.0/satBatch, decodeBatch)
	res.put(perLayerDefs, "wire.batch_decode_allocs_per_msg", allocsPerOp(1024, decodeBatch)/satBatch, 1024)
	row("wire.batch_encode_ns_per_msg", 1.0/satBatch, func() {
		bp := wire.GetBuffer()
		*bp = wire.AppendBatch((*bp)[:0], batch)
		wire.PutBuffer(bp)
	})

	// wire: egress side, as the server's delivery pump and the client's
	// read loop run it per replica.
	row("wire.delivery_encode_ns", 1, func() {
		bp := wire.GetBuffer()
		*bp = wire.AppendDelivery(append((*bp)[:0], 0, 0, 0, 0, byte(wire.FrameMessage)), 7, 0, msg)
		wire.PutBuffer(bp)
	})
	delivery := wire.EncodeDelivery(7, 0, msg)
	row("wire.delivery_decode_ns", 1, func() {
		_, _, m, err := arena.DecodeDeliveryArena(delivery)
		if err != nil {
			panic(err)
		}
		sinkPtr = m
	})
	row("wire.forward_encode_ns", 1, func() {
		bp := wire.GetBuffer()
		*bp = wire.AppendForward((*bp)[:0], wire.ForwardHeader{Origin: 0, Hops: 1}, payload)
		wire.PutBuffer(bp)
	})

	row("jms.shared_ns", 1, func() { sinkPtr = msg.Shared() })

	// selector and filter: the paper's two t_fltr.
	ranges, selectors := probeFilters(in)
	var nodes []selector.Node
	var props, corrs []filter.Filter
	for _, s := range selectors {
		n, err := selector.Parse(s.Expr)
		if err != nil {
			return nil, fmt.Errorf("selector %q: %w", s.Expr, err)
		}
		nodes = append(nodes, n)
		f, _ := buildFilter(s)
		props = append(props, f)
	}
	for _, s := range ranges {
		f, err := buildFilter(s)
		if err != nil {
			return nil, fmt.Errorf("range %q: %w", s.Expr, err)
		}
		corrs = append(corrs, f)
	}
	var turn int
	row("selector.eval_ns", 1, func() { turn++; sinkTri = selector.Eval(nodes[turn%len(nodes)], msg) })
	row("selector.parse_us", 1e-3, func() {
		turn++
		n, _ := selector.Parse(selectors[turn%len(selectors)].Expr)
		sinkPtr = n
	})
	row("filter.corrid_range_match_ns", 1, func() { turn++; sinkBool = corrs[turn%len(corrs)].Matches(msg) })
	row("filter.property_match_ns", 1, func() { turn++; sinkBool = props[turn%len(props)].Matches(msg) })

	// topic: the subscription store with this population.
	if err := replayTopic(w, in, msg, row, res, log, parent); err != nil {
		return nil, err
	}

	// broker: in-process publish to drained subscribers, population installed.
	if err := replayBroker(w, in, row, res); err != nil {
		return nil, err
	}

	// cluster: the forward alone, on a 3-member SSR mesh without subscribers.
	if err := replayCluster(payload, batchPayload, batch, row); err != nil {
		return nil, err
	}
	ring, err := cluster.NewRing([]string{"m0", "m1", "m2"}, []string{topicName})
	if err != nil {
		return nil, err
	}
	row("cluster.ring_owner_ns", 1, func() { sinkStr, _ = ring.Owner(topicName) })
	return res, nil
}

// replayTopic times the subscription store: installing the population,
// matching against it, its footprint, and the index rebuild after churn.
func replayTopic(w *workload, in inputs, msg *jms.Message, row rowFunc, res results, log *spanLog, parent int) error {
	population := memberPopulation(w, in)
	popSize := len(population)
	install := func(copies int) (*topic.Registry, []*topic.Subscription, error) {
		reg := topic.NewRegistry()
		if _, err := reg.Configure(topicName); err != nil {
			return nil, nil, err
		}
		subs, err := installPopulation(reg, population, copies)
		return reg, subs, err
	}

	span := log.start("replay:topic.subscribe_us", parent)
	const installs = 5
	per := make([]float64, installs)
	var reg *topic.Registry
	for i := range per {
		t := time.Now()
		var err error
		if reg, _, err = install(1); err != nil {
			return err
		}
		per[i] = float64(time.Since(t)) / 1e3 / float64(popSize)
	}
	res.put(perLayerDefs, "topic.subscribe_us", median(per), installs*popSize)
	log.end(span)

	tp, err := reg.Lookup(topicName)
	if err != nil {
		return err
	}
	idx, _ := tp.Index()
	var matched []*topic.Subscription
	var evals int
	row("topic.match_ns", 1, func() { matched, evals = idx.Match(msg, matched[:0]) })
	if len(matched) != w.r/w.members {
		return fmt.Errorf("topic replay matched %d subscriptions, want %d", len(matched), w.r/w.members)
	}
	res.put(perLayerDefs, "topic.match_evals_per_msg", float64(evals), 1)

	// Marginal live heap per subscription: enough copies of the population
	// that the registry's fixed cost is small beside them.
	span = log.start("replay:topic.bytes_per_sub", parent)
	copies := (1024 + popSize - 1) / popSize
	reg, tp, idx, matched = nil, nil, nil, nil
	before := stress.HeapLive()
	reg, subs, err := install(copies)
	if err != nil {
		return err
	}
	after := stress.HeapLive()
	res.put(perLayerDefs, "topic.bytes_per_sub", float64(int64(after)-int64(before))/float64(copies*popSize), copies*popSize)
	log.end(span)

	// Last on this registry: the churn replaces part of the population with
	// the stress mix.
	span = log.start("replay:topic.index_rebuild_us", parent)
	if tp, err = reg.Lookup(topicName); err != nil {
		return err
	}
	pop := &stress.Population{Registry: reg, Topic: tp, Subs: subs, DistinctRules: 1024}
	rng := rand.New(rand.NewSource(1))
	tp.Index()
	const rebuilds = 9
	per = per[:0]
	for i := 0; i < rebuilds; i++ {
		if _, err := pop.Churn(rng, 64); err != nil {
			return err
		}
		t := time.Now()
		tp.Index()
		per = append(per, float64(time.Since(t))/1e3)
	}
	res.put(perLayerDefs, "topic.index_rebuild_us", median(per), rebuilds)
	log.end(span)
	return nil
}

// rowFunc times fn and stores scale x its nanoseconds per call under name.
type rowFunc func(name string, scale float64, fn func())

func replayBroker(w *workload, in inputs, row rowFunc, res results) error {
	br := broker.New(brokerOptions(w, nil))
	defer func() { _ = br.Close() }()
	if err := br.ConfigureTopic(topicName); err != nil {
		return err
	}
	stop := make(chan struct{})
	drained := make(chan struct{})
	var live []*broker.Subscriber
	for _, spec := range memberPopulation(w, in) {
		f, err := buildFilter(spec)
		if err != nil {
			return err
		}
		sub, err := br.Subscribe(topicName, f)
		if err != nil {
			return err
		}
		live = append(live, sub)
	}
	live = live[len(in.idle):]
	var delivered atomic.Int64 // messages received on every matching subscriber
	go func() {
		defer close(drained)
		for i := 0; ; i = (i + 1) % len(live) {
			select {
			case <-live[i].Chan():
				if i == len(live)-1 {
					delivered.Add(1)
				}
			case <-stop:
				return
			}
		}
	}()
	defer func() { close(stop); <-drained }()

	// Publish returns at admission, up to InFlight batches ahead of the
	// match and transmit stages. Holding the backlog to a few hundred
	// messages makes a call's time the pipeline's time per message rather
	// than the enqueue's.
	ctx := context.Background()
	var perr error
	var published int64
	admit := func(n int64) {
		published += n
		for published-delivered.Load() > 256 {
			runtime.Gosched()
		}
	}
	publish := func() {
		// A fresh message per call: the broker owns what it is handed.
		if err := br.Publish(ctx, in.newMessage()); err != nil {
			perr = err
		}
		admit(1)
	}
	publishBatch := func() {
		msgs := make([]*jms.Message, satBatch)
		for i := range msgs {
			msgs[i] = in.newMessage()
		}
		if err := br.PublishBatch(ctx, msgs); err != nil {
			perr = err
		}
		admit(satBatch)
	}
	row("broker.publish_ns", 1, publish)
	row("broker.publish_batch_ns_per_msg", 1.0/satBatch, publishBatch)
	res.put(perLayerDefs, "broker.publish_allocs_per_msg", allocsPerOp(256, publishBatch)/satBatch, 256*satBatch)
	return perr
}

func replayCluster(payload, batchPayload []byte, batch []*jms.Message, row rowFunc) error {
	bare := workload{name: "mesh_bare", members: 3, subBuffer: 64}
	st, err := setUp(&bare, inputs{}, nil)
	if err != nil {
		return err
	}
	defer st.close()
	msg := batch[0]
	var ferr error
	row("cluster.forward_us", 1e-3, func() {
		if _, err := st.meshes[0].ForwardPublish(msg, payload); err != nil {
			ferr = err
		}
	})
	row("cluster.forward_batch_us_per_msg", 1e-3/satBatch, func() {
		if _, err := st.meshes[0].ForwardBatch(batch, batchPayload); err != nil {
			ferr = err
		}
	})
	return ferr
}

// clientRows times the client layer's calls against the live, idle stack:
// publish round trips for about budget, then dial and subscribe.
func clientRows(g *generator, budget time.Duration, res results) (phaseCounts, error) {
	rtt, n, counts := g.roundTrips(budget/2, false)
	res.put(perLayerDefs, "client.publish_rtt_us", rtt, n)
	rtt, n, c := g.roundTrips(budget/2, true)
	res.put(perLayerDefs, "client.publish_batch_rtt_us", rtt, n)
	counts.attempted, counts.failed = counts.attempted+c.attempted, counts.failed+c.failed
	if c.failed > 0 {
		counts.why = c.why
	}

	addr := g.st.servers[0].Addr().String()
	const m = 200
	dial, sub := make([]float64, 0, m), make([]float64, 0, m)
	ctx := context.Background()
	for i := 0; i < m; i++ {
		t := time.Now()
		c, err := client.Dial(addr)
		if err != nil {
			return counts, err
		}
		dial = append(dial, float64(time.Since(t))/1e3)
		// A literal no message carries, so the extra subscription receives
		// nothing while it exists.
		t = time.Now()
		s, err := c.Subscribe(ctx, topicName, wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: "probe-never"}, 1)
		if err != nil {
			_ = c.Close()
			return counts, err
		}
		sub = append(sub, float64(time.Since(t))/1e3)
		_ = s.Unsubscribe(ctx)
		_ = c.Close()
	}
	res.put(perLayerDefs, "client.dial_us", median(dial), m)
	res.put(perLayerDefs, "client.subscribe_us", median(sub), m)
	return counts, nil
}

// counters is a cut of the public snapshots Part B differences over a
// saturated phase.
type counters struct {
	wire     wire.WireStats
	broker   broker.Stats
	mesh     cluster.WireMeshStats
	mem      runtime.MemStats
	schedLat *metrics.Float64Histogram
}

const schedLatencies = "/sched/latencies:seconds"

func snapshot(st *stack) counters {
	var c counters
	for _, s := range st.servers {
		ws := s.WireStats()
		c.wire.FramesIn += ws.FramesIn
		c.wire.ReadCalls += ws.ReadCalls
		c.wire.FramesOut += ws.FramesOut
		c.wire.BytesOut += ws.BytesOut
		c.wire.WriteCalls += ws.WriteCalls
		c.wire.WriteNanos += ws.WriteNanos
	}
	// Dispatches, evaluations and drops are summed over the members, against
	// the messages received at the entry member: the replication grade is
	// then R on the mesh as on a single broker.
	for i, br := range st.brokers {
		bs := br.Stats()
		c.broker.Dispatched += bs.Dispatched
		c.broker.FilterEvals += bs.FilterEvals
		c.broker.Dropped += bs.Dropped
		if i == 0 {
			c.broker.Received = bs.Received
		}
	}
	if len(st.meshes) > 0 {
		c.mesh = st.meshes[0].Stats()
	}
	runtime.ReadMemStats(&c.mem)
	s := []metrics.Sample{{Name: schedLatencies}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64Histogram {
		c.schedLat = s[0].Value.Float64Histogram()
	}
	return c
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterRows turns two snapshots around a saturated phase into the live
// counter rows.
func counterRows(res results, a, b counters, msgs uint64) {
	n := int(msgs)
	put := func(name string, v float64) { res.put(perLayerDefs, name, v, n) }
	put("wire.frames_per_read", ratio(b.wire.FramesIn-a.wire.FramesIn, b.wire.ReadCalls-a.wire.ReadCalls))
	put("wire.frames_per_write", ratio(b.wire.FramesOut-a.wire.FramesOut, b.wire.WriteCalls-a.wire.WriteCalls))
	put("wire.write_ns_per_frame", ratio(b.wire.WriteNanos-a.wire.WriteNanos, b.wire.FramesOut-a.wire.FramesOut))
	put("wire.bytes_out_per_msg", ratio(b.wire.BytesOut-a.wire.BytesOut, msgs))
	received := b.broker.Received - a.broker.Received
	put("broker.filter_evals_per_msg", ratio(b.broker.FilterEvals-a.broker.FilterEvals, received))
	put("broker.replication_grade", ratio(b.broker.Dispatched-a.broker.Dispatched, received))
	put("broker.dropped", float64(b.broker.Dropped-a.broker.Dropped))
	put("cluster.forwarded_out_per_msg", ratio(b.mesh.ForwardedOut-a.mesh.ForwardedOut, (msgs+satBatch-1)/satBatch))
	put("cluster.forward_errors", float64(b.mesh.ForwardErrors-a.mesh.ForwardErrors))
	put("cluster.reconnects", float64(b.mesh.Reconnects-a.mesh.Reconnects))
	put("runtime.gc_cycles", float64(b.mem.NumGC-a.mem.NumGC))
	put("runtime.gc_pause_total_ms", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)
	put("runtime.sched_latency_p99_us", histogramP99(a.schedLat, b.schedLat)*1e6)
}

// histogramP99 is the 99th percentile of the observations b holds beyond a,
// as the upper edge of the bucket it falls in.
func histogramP99(a, b *metrics.Float64Histogram) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen*100 >= total*99 {
			return b.Buckets[min(i+1, len(b.Buckets)-2)]
		}
	}
	return 0
}
