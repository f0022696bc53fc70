// Command jmsload drives a remote broker (cmd/jmsd) the way the paper's
// test clients drove FioranoMQ: P publishers and S subscribers, each on an
// exclusive connection, with a warm-up cut and a trimmed measurement
// window, printing the received/dispatched/overall rates.
//
// Two load shapes are supported. The default is the paper's saturated
// mode: every publisher sends as fast as the broker's push-back allows,
// which measures the service capacity. With -rate the generator becomes a
// paced Poisson source at the given aggregate arrival rate — the open
// M/GI/1 arrival model of the analysis — which is the mode to use when
// comparing against the broker's online drift monitor (jmsd -http). The
// arrivals come from internal/loadgen, and a "pacer" line reports its
// self-check: release lag p99, the share of the schedule kept, and whether
// the run is valid by the repository benchmark's rule.
//
// With -tracesample N every Nth published message carries a generator-
// stamped trace ID through the wire protocol; the generator remembers the
// send time per ID (with -rate, the arrival's due time, so a pacer or
// publish stall is charged to the messages it delayed) and the subscriber
// side reports the end-to-end publish→deliver latency distribution of the
// sampled messages over the measurement window. With -tracehttp pointing
// at the broker's telemetry plane (jmsd -http), the run additionally
// fetches the sampled IDs from /trace/{id} after the load stops and prints
// the server-side per-stage breakdown — ingress→decode→enqueue-wait→match→
// replicate→transmit→encode→egress — next to the end-to-end latency, so
// the flight recorder's decomposition can be read against what the client
// measured.
//
// With -churn N the generator additionally runs N churner connections,
// each cycling subscribe→unsubscribe with distinct correlation-ID filters
// as fast as the broker confirms them, and reports the sustained
// subscription churn rate. This drives the interned, incrementally-
// maintained subscription store the way the internal/stress wall does,
// but over the real wire protocol against a live jmsd.
//
// With -mesh psr|ssr|hash the target is a replication mesh of jmsd
// members (-addr then lists every member, comma-separated) and the
// generator takes the topology-correct shape: PSR mirrors every
// subscriber on all members and round-robins publishers across entry
// members; SSR partitions subscribers across members (the flood brings
// every message to each home); hash homes all subscribers on the topic's
// owner member. After the load stops the generator drains and reports
// lost deliveries — acked publishes times the matching population minus
// what the subscribers actually saw — which must be zero on a healthy
// mesh.
//
// With -batch B the generator exercises the batched publish path: in
// saturated mode each publisher sends explicit PublishBatch chunks of B
// messages (one MSG_BATCH frame, one broker in-flight slot per chunk); in
// paced mode the Poisson arrivals auto-coalesce through the client's
// size/linger batcher (-linger bounds the wait), producing the M^X/G/1
// batch-arrival pattern the drift monitor models.
//
// Usage:
//
//	jmsload -addr 127.0.0.1:7650 -topic bench -publishers 5 \
//	        -matching 2 -nonmatching 40 -warmup 1s -measure 5s \
//	        -rate 4000 -tracesample 10 -seed 1
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/jms"
	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jmsload", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7650", "broker address; with -mesh, comma-separated addresses of every member")
	meshName := fs.String("mesh", "", "replication topology of the target mesh: psr, ssr or hash; empty drives a standalone broker")
	topicName := fs.String("topic", "bench", "topic to use (configured if missing)")
	publishers := fs.Int("publishers", 5, "publisher connections")
	matching := fs.Int("matching", 1, "subscribers whose filter matches the traffic (replication grade R)")
	nonMatching := fs.Int("nonmatching", 0, "subscribers with non-matching filters")
	useSelectors := fs.Bool("selectors", false, "use application-property selectors instead of correlation-ID filters")
	warmup := fs.Duration("warmup", time.Second, "warm-up before the measurement window")
	measure := fs.Duration("measure", 5*time.Second, "trimmed measurement window")
	rate := fs.Float64("rate", 0, "aggregate Poisson arrival rate in msgs/s (0 = saturated publishers)")
	seed := fs.Int64("seed", 1, "RNG seed for the Poisson arrival schedule")
	traceSample := fs.Int("tracesample", 0, "stamp every Nth published message with a trace ID and report publish-to-deliver latency (0 = off)")
	traceHTTP := fs.String("tracehttp", "", "jmsd telemetry address (host:port); fetch sampled IDs from /trace/{id} after the run and print the server-side stage breakdown (needs -tracesample)")
	batch := fs.Int("batch", 0, "batch size: saturated publishers send explicit PublishBatch chunks of this size, paced publishers auto-coalesce up to it (0 or 1 = per-message)")
	linger := fs.Duration("linger", time.Millisecond, "paced mode: how long the first coalesced message waits for company before a short batch is flushed (needs -batch > 1)")
	churn := fs.Int("churn", 0, "churner connections cycling subscribe/unsubscribe during the run (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *publishers < 1 || *matching < 0 || *nonMatching < 0 {
		return fmt.Errorf("jmsload: invalid population (publishers=%d matching=%d nonmatching=%d)",
			*publishers, *matching, *nonMatching)
	}
	if *rate < 0 {
		return fmt.Errorf("jmsload: negative rate %v", *rate)
	}
	if *batch < 0 {
		return fmt.Errorf("jmsload: negative batch %d", *batch)
	}
	if *linger <= 0 {
		return fmt.Errorf("jmsload: non-positive linger %v", *linger)
	}
	if *traceSample < 0 {
		return fmt.Errorf("jmsload: negative tracesample %d", *traceSample)
	}
	if *churn < 0 {
		return fmt.Errorf("jmsload: negative churn %d", *churn)
	}
	if *traceSample > 0 && *matching == 0 {
		return fmt.Errorf("jmsload: -tracesample needs at least one matching subscriber to observe deliveries")
	}
	if *traceHTTP != "" && *traceSample == 0 {
		return fmt.Errorf("jmsload: -tracehttp needs -tracesample to stamp fetchable IDs")
	}

	var addrs []string
	for _, a := range strings.Split(*addr, ",") {
		if a = strings.TrimSpace(a); a != "" {
			addrs = append(addrs, a)
		}
	}
	if len(addrs) == 0 {
		return fmt.Errorf("jmsload: no broker address")
	}
	var meshKind cluster.TopologyKind
	if *meshName != "" {
		var err error
		if meshKind, err = cluster.ParseTopology(*meshName); err != nil {
			return fmt.Errorf("jmsload: -mesh: %w", err)
		}
		if len(addrs) < 2 {
			return fmt.Errorf("jmsload: -mesh %s needs at least 2 comma-separated members in -addr", meshKind)
		}
	} else if len(addrs) > 1 {
		return fmt.Errorf("jmsload: multiple -addr members need -mesh")
	}

	// subHomes lists the members subscriber i attaches to. PSR mirrors
	// every subscriber on all members (no forwarding: whichever member a
	// publish enters must match locally); SSR homes each subscriber on one
	// member and lets the flood bring every message there; hash homes all
	// subscribers on the topic's owner, where the mesh routes every publish.
	hashOwner := 0
	if meshKind == cluster.TopologyHash {
		router, err := cluster.NewHashRouter(len(addrs), []string{*topicName})
		if err != nil {
			return err
		}
		hashOwner = router.Owner(*topicName)
	}
	subHomes := func(i int) []string {
		switch meshKind {
		case cluster.TopologyPSR:
			return addrs
		case cluster.TopologySSR:
			return addrs[i%len(addrs) : i%len(addrs)+1]
		case cluster.TopologyHash:
			return addrs[hashOwner : hashOwner+1]
		}
		return addrs[:1]
	}
	pubAddr := func(p int) string { return addrs[p%len(addrs)] }

	setupCtx, cancelSetup := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancelSetup()
	for _, a := range addrs {
		admin, err := client.Dial(a)
		if err != nil {
			return err
		}
		if err := admin.ConfigureTopic(setupCtx, *topicName); err != nil {
			// Already-configured topics are fine: keep going.
			fmt.Fprintf(stdout, "note: configure topic on %s: %v\n", a, err)
		}
		_ = admin.Close()
	}

	spec := func(i int, matches bool) wire.FilterSpec {
		v := 0
		if !matches {
			v = i + 1
		}
		if *useSelectors {
			return wire.FilterSpec{Mode: wire.FilterSelector, Expr: "prop = " + strconv.Itoa(v)}
		}
		return wire.FilterSpec{Mode: wire.FilterCorrelationID, Expr: "#" + strconv.Itoa(v)}
	}

	// Subscribers, each on an exclusive connection (as in the paper). The
	// latency summary collects publish→deliver spans of traced messages
	// while `measuring` is set; with several matching subscribers each
	// delivered copy contributes one sample, which is what "latency of a
	// delivery" means under replication.
	var (
		delivered atomic.Uint64
		measuring atomic.Bool
		latMu     sync.Mutex
		lat       = stats.NewSummary()
		// traceSent maps a generator-stamped TraceID to its send time.
		traceMu   sync.Mutex
		traceSent = make(map[uint64]time.Time)
	)
	var subWG sync.WaitGroup
	subConns := make([]*client.Client, 0, *matching+*nonMatching)
	defer func() {
		for _, c := range subConns {
			_ = c.Close()
		}
	}()
	for i := 0; i < *matching+*nonMatching; i++ {
		for _, home := range subHomes(i) {
			c, err := client.Dial(home)
			if err != nil {
				return err
			}
			subConns = append(subConns, c)
			sub, err := c.Subscribe(setupCtx, *topicName, spec(i, i < *matching), 4096)
			if err != nil {
				return err
			}
			subWG.Add(1)
			go func() {
				defer subWG.Done()
				for m := range sub.Chan() {
					delivered.Add(1)
					// Every delivery carries a TraceID (the client library
					// auto-stamps unset ones), so sampled messages are the
					// ones with a remembered send time, not the nonzero ones.
					if t := m.Header.TraceID; t != 0 && measuring.Load() {
						traceMu.Lock()
						sent, ok := traceSent[t]
						traceMu.Unlock()
						if ok {
							d := time.Since(sent).Seconds()
							latMu.Lock()
							lat.Add(d)
							latMu.Unlock()
						}
					}
				}
			}()
		}
	}

	// Publishers: pre-created message template. stamp gives every Nth
	// clone a generator-owned trace ID and remembers its send time — the
	// arrival's due time when paced — so the subscriber side can compute
	// publish→deliver spans and the post-run -tracehttp pass knows which
	// IDs to ask the broker for.
	template := jms.NewMessage(*topicName)
	if *useSelectors {
		if err := template.SetInt32Property("prop", 0); err != nil {
			return err
		}
	} else {
		if err := template.SetCorrelationID("#0"); err != nil {
			return err
		}
	}
	var published, stamped, acked atomic.Uint64
	traceBase := trace.NewID(uint64(time.Now().UnixNano()), uint64(*seed))
	stamp := func(m *jms.Message, sent time.Time) {
		if *traceSample > 0 && published.Add(1)%uint64(*traceSample) == 0 {
			id := trace.NewID(traceBase, stamped.Add(1))
			m.Header.TraceID = id
			traceMu.Lock()
			traceSent[id] = sent
			traceMu.Unlock()
			return
		}
		if *traceSample == 0 {
			published.Add(1)
		}
	}
	// Publishers stop on stopCtx, between calls. pubCtx only bounds the
	// call that is outstanding at that moment: cancelling it right away
	// would abandon a publish the server has already accepted — delivered,
	// but never counted in acked.
	stopCtx, stopPub := context.WithCancel(context.Background())
	defer stopPub()
	stopped := func() bool { return stopCtx.Err() != nil }
	pubCtx, cancelPub := context.WithCancel(context.Background())
	defer cancelPub()
	var pubWG sync.WaitGroup

	// Paced publishers coalesce through the client's size/linger batcher;
	// saturated publishers send explicit full batches below, where the
	// coalescer would only add handoff overhead.
	var pubOpts client.Options
	if *rate > 0 && *batch > 1 {
		pubOpts = client.Options{BatchMax: *batch, BatchLinger: *linger}
	}
	pubConns := make([]*client.Client, 0, *publishers)
	for p := 0; p < *publishers; p++ {
		c, err := client.DialWith(pubAddr(p), pubOpts)
		if err != nil {
			return err
		}
		pubConns = append(pubConns, c)
	}

	var (
		pacing    loadgen.Result
		pacingErr error
	)
	if *rate > 0 {
		// Paced mode: the load generator releases Poisson arrivals at
		// absolute deadlines and its lanes publish them round-robin over
		// the connections — enough of them per connection for the client's
		// coalescer to fill batches.
		pubWG.Add(1)
		go func() {
			defer pubWG.Done()
			defer func() {
				for _, c := range pubConns {
					_ = c.Close()
				}
			}()
			pacing, pacingErr = loadgen.Run(stopCtx, stats.NewRNG(*seed), *rate, 0, func(_ context.Context, i int, due time.Time) error {
				m := template.Clone()
				stamp(m, due)
				if err := pubConns[i%len(pubConns)].Publish(pubCtx, m); err != nil {
					return err
				}
				acked.Add(1)
				return nil
			})
		}()
	} else if *batch > 1 {
		// Saturated batched mode: each publisher sends explicit full
		// batches — one MSG_BATCH frame and one broker in-flight slot per
		// -batch messages. Fresh slice per call: the client encodes before
		// returning, but the broker-side contract is ownership transfer and
		// keeping the load generator's unit allocation visible mirrors it.
		for _, c := range pubConns {
			pubWG.Add(1)
			go func(c *client.Client) {
				defer pubWG.Done()
				defer func() { _ = c.Close() }()
				for !stopped() {
					msgs := make([]*jms.Message, *batch)
					for i := range msgs {
						msgs[i] = template.Clone()
						stamp(msgs[i], time.Now())
					}
					if err := c.PublishBatch(pubCtx, msgs); err != nil {
						return
					}
					acked.Add(uint64(len(msgs)))
				}
			}(c)
		}
	} else {
		// Saturated mode: send as fast as push-back allows.
		for _, c := range pubConns {
			pubWG.Add(1)
			go func(c *client.Client) {
				defer pubWG.Done()
				defer func() { _ = c.Close() }()
				for !stopped() {
					m := template.Clone()
					stamp(m, time.Now())
					if err := c.Publish(pubCtx, m); err != nil {
						return
					}
					acked.Add(1)
				}
			}(c)
		}
	}

	// Churners: each connection cycles subscribe -> unsubscribe with its
	// own rotating set of exact correlation-ID filters, so the broker's
	// subscription store sees a sustained storm of table mutations (and
	// the interner sees rule churn) while the publish load runs.
	var churnOps atomic.Uint64
	var churnWG sync.WaitGroup
	churnCtx, cancelChurn := context.WithCancel(context.Background())
	defer cancelChurn()
	for g := 0; g < *churn; g++ {
		c, err := client.Dial(addrs[g%len(addrs)])
		if err != nil {
			return err
		}
		churnWG.Add(1)
		go func(g int, c *client.Client) {
			defer churnWG.Done()
			defer func() { _ = c.Close() }()
			for i := 0; churnCtx.Err() == nil; i++ {
				sp := wire.FilterSpec{Mode: wire.FilterCorrelationID,
					Expr: "#churn-" + strconv.Itoa(g) + "-" + strconv.Itoa(i%64)}
				sub, err := c.Subscribe(churnCtx, *topicName, sp, 1)
				if err != nil {
					return
				}
				if err := sub.Unsubscribe(churnCtx); err != nil {
					return
				}
				churnOps.Add(1)
			}
		}(g, c)
	}

	time.Sleep(*warmup)
	measuring.Store(true)
	pub0, del0, ch0 := published.Load(), delivered.Load(), churnOps.Load()
	start := time.Now()
	time.Sleep(*measure)
	pub1, del1, ch1 := published.Load(), delivered.Load(), churnOps.Load()
	measuring.Store(false)
	elapsed := time.Since(start).Seconds()

	cancelChurn()
	churnWG.Wait()
	stopPub()
	grace := time.AfterFunc(2*time.Second, cancelPub)
	pubWG.Wait()
	grace.Stop()

	// Lost-delivery accounting: every acked publish owes one delivery per
	// matching subscriber, whatever the topology (PSR dispatches on the
	// entry member's mirror, SSR floods to each home, hash routes to the
	// owner). Forwarded copies can still be in flight after the last ack,
	// so drain before comparing.
	nAcked := acked.Load()
	expected := nAcked * uint64(*matching)
	drainDeadline := time.Now().Add(10 * time.Second)
	for delivered.Load() < expected && time.Now().Before(drainDeadline) {
		time.Sleep(20 * time.Millisecond)
	}
	nDelivered := delivered.Load()
	lost := int64(expected) - int64(nDelivered)
	// The replication grade is a count over the same drained ledger, not a
	// ratio of the two windowed rates below: deliveries of publishes from
	// before the window (a forward hop behind) land inside it and would move
	// a short window's ratio.
	var grade float64
	if nAcked > 0 {
		grade = float64(nDelivered) / float64(nAcked)
	}

	for _, c := range subConns {
		_ = c.Close()
	}
	subConns = nil
	subWG.Wait()

	recvRate := float64(pub1-pub0) / elapsed
	dispRate := float64(del1-del0) / elapsed
	fmt.Fprintf(stdout, "window   : %.2fs (after %v warmup)\n", elapsed, *warmup)
	if *rate > 0 {
		fmt.Fprintf(stdout, "target   : %10.0f msgs/s (Poisson, seed %d)\n", *rate, *seed)
		// The generator's self-check over the whole run, warm-up included:
		// invalid means its own lag, not the broker, shaped the latencies.
		verdict := "invalid"
		if pacing.Valid() {
			verdict = "valid"
		}
		fmt.Fprintf(stdout, "pacer    : lag p99 %v, achieved %.3f of the schedule, %s", pacing.LagP99, pacing.Achieved, verdict)
		if pacingErr != nil && !errors.Is(pacingErr, context.Canceled) {
			fmt.Fprintf(stdout, "; stopped early: %v", pacingErr)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "received : %10.0f msgs/s\n", recvRate)
	fmt.Fprintf(stdout, "dispatched:%10.0f msgs/s (R = %.2f)\n", dispRate, grade)
	fmt.Fprintf(stdout, "overall  : %10.0f msgs/s\n", recvRate+dispRate)
	if *meshName != "" {
		fmt.Fprintf(stdout, "mesh     : %s over %d members; lost %d of %d expected deliveries\n",
			meshKind, len(addrs), lost, expected)
	}
	if *churn > 0 {
		fmt.Fprintf(stdout, "churn    : %10.0f sub+unsub ops/s (%d churners)\n",
			float64(ch1-ch0)/elapsed, *churn)
	}
	if *traceSample > 0 {
		latMu.Lock()
		n := lat.N()
		var mean, p99 float64
		if n > 0 {
			mean, _ = lat.Mean()
			p99, _ = lat.Quantile(0.99)
		}
		latMu.Unlock()
		if n == 0 {
			fmt.Fprintf(stdout, "latency  : no traced deliveries in the window\n")
		} else {
			fmt.Fprintf(stdout, "latency  : mean %s  p99 %s  (%d traced deliveries, 1 in %d sampled)\n",
				time.Duration(mean*float64(time.Second)),
				time.Duration(p99*float64(time.Second)), n, *traceSample)
		}
		if *traceHTTP != "" {
			traceMu.Lock()
			ids := make([]uint64, 0, len(traceSent))
			for id := range traceSent {
				ids = append(ids, id)
			}
			traceMu.Unlock()
			printStageBreakdown(stdout, *traceHTTP, ids, mean)
		}
	}
	return nil
}

// printStageBreakdown fetches the broker-side traces for the sampled IDs
// and prints the mean per-message residency of each pipeline stage next
// to the client-measured end-to-end latency. The broker's flight
// recorder head-samples (jmsd -trace-sample N keeps full spans for 1 in
// N IDs) and commits a trace only after it goes quiet, so the fetch
// waits briefly, tolerates 404s, and reports how many IDs resolved.
func printStageBreakdown(stdout io.Writer, addr string, ids []uint64, e2eMean float64) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	// Let the recorder's quiescence sweep (250ms by default) commit the
	// tail of the run before asking for span trees.
	time.Sleep(600 * time.Millisecond)
	cl := &http.Client{Timeout: 2 * time.Second}
	const maxFetch = 256
	type agg struct {
		sumNs int64
		n     int64
	}
	byStage := make(map[string]*agg)
	var fetched, sojournNs int64
	for i := len(ids) - 1; i >= 0 && fetched < maxFetch; i-- {
		resp, err := cl.Get(base + "/trace/" + trace.FormatID(ids[i]))
		if err != nil {
			fmt.Fprintf(stdout, "stages   : fetch failed: %v\n", err)
			return
		}
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			continue
		}
		var tj trace.TraceJSON
		err = json.NewDecoder(resp.Body).Decode(&tj)
		_ = resp.Body.Close()
		if err != nil || tj.Skeleton || tj.SpanCount == 0 {
			continue
		}
		fetched++
		sojournNs += tj.TotalNs
		for _, sp := range tj.Spans {
			a := byStage[sp.Stage]
			if a == nil {
				a = &agg{}
				byStage[sp.Stage] = a
			}
			a.sumNs += sp.DurNs
			a.n++
		}
	}
	if fetched == 0 {
		fmt.Fprintf(stdout, "stages   : no sampled IDs resolved at %s/trace (is jmsd running with -trace-sample?)\n", base)
		return
	}
	fmt.Fprintf(stdout, "stages   : %d of %d sampled IDs resolved at %s/trace\n", fetched, len(ids), base)
	for _, st := range trace.Stages() {
		a := byStage[st.String()]
		if a == nil || a.n == 0 {
			continue
		}
		perMsg := time.Duration(a.sumNs / fetched)
		note := st.Layer()
		if st == trace.StageIngress {
			note += ", includes socket idle wait"
		}
		fmt.Fprintf(stdout, "  %-12s %12v/msg  (%d spans, %s)\n", st.String(), perMsg, a.n, note)
	}
	fmt.Fprintf(stdout, "  %-12s %12v/msg  (broker enqueue→last transmit)\n",
		"sojourn", time.Duration(sojournNs/fetched))
	fmt.Fprintf(stdout, "  %-12s %12v/msg  (client publish→deliver)\n",
		"end-to-end", time.Duration(e2eMean*float64(time.Second)))
}
