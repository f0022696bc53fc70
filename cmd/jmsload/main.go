// Command jmsload drives a remote broker (cmd/jmsd) the way the paper's
// test clients drove FioranoMQ: P publishers and S subscribers, each on an
// exclusive connection, with a warm-up cut and a trimmed measurement
// window, printing the received/dispatched/overall rates. The loop is
// internal/bench's RunWire, the one its scenario runner runs in process.
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
// paced mode each Poisson arrival joins the MSG_BATCH frame of the
// arrivals that came while its connection's write was in flight (at most
// B, no timer: a lone arrival leaves at once), producing the M^X/G/1
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
	"unicode"

	"repro/internal/bench"
	"repro/internal/client"
	"repro/internal/cluster"
	"repro/internal/jms"
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
	batch := fs.Int("batch", 0, "batch size: saturated publishers send explicit PublishBatch chunks of this size, paced publishers join the batch of arrivals made during their connection's write, up to it (0 or 1 = per-message)")
	churn := fs.Int("churn", 0, "churner connections cycling subscribe/unsubscribe during the run (0 = off)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *publishers < 1 || *matching < 0 || *nonMatching < 0:
		return fmt.Errorf("jmsload: invalid population (publishers=%d matching=%d nonmatching=%d)",
			*publishers, *matching, *nonMatching)
	case *rate < 0:
		return fmt.Errorf("jmsload: negative rate %v", *rate)
	case *batch < 0:
		return fmt.Errorf("jmsload: negative batch %d", *batch)
	case *traceSample < 0:
		return fmt.Errorf("jmsload: negative tracesample %d", *traceSample)
	case *churn < 0:
		return fmt.Errorf("jmsload: negative churn %d", *churn)
	case *traceSample > 0 && *matching == 0:
		return fmt.Errorf("jmsload: -tracesample needs at least one matching subscriber to observe deliveries")
	case *traceHTTP != "" && *traceSample == 0:
		return fmt.Errorf("jmsload: -tracehttp needs -tracesample to stamp fetchable IDs")
	}

	addrs := strings.FieldsFunc(*addr, func(r rune) bool { return r == ',' || unicode.IsSpace(r) })
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

	// subHomes lists the members subscriber i attaches to. PSR forwards
	// nothing, so whichever member a publish enters must match locally.
	subHomes := func(int) []string { return addrs[:1] }
	switch meshKind {
	case cluster.TopologyPSR:
		subHomes = func(int) []string { return addrs }
	case cluster.TopologySSR:
		subHomes = func(i int) []string { return addrs[i%len(addrs) : i%len(addrs)+1] }
	case cluster.TopologyHash:
		router, err := cluster.NewHashRouter(len(addrs), []string{*topicName})
		if err != nil {
			return err
		}
		owner := router.Owner(*topicName)
		subHomes = func(int) []string { return addrs[owner : owner+1] }
	}

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

	// Churners rotate through 64 exact correlation-ID filters of their own,
	// so the interner sees rule churn too. They stop as the window closes.
	var churnOps atomic.Uint64
	var churnWG sync.WaitGroup
	churnCtx, cancelChurn := context.WithCancel(context.Background())
	defer func() {
		cancelChurn()
		churnWG.Wait()
	}()
	for g := 0; g < *churn; g++ {
		c, err := client.Dial(addrs[g%len(addrs)])
		if err != nil {
			return err
		}
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			defer func() { _ = c.Close() }()
			for i := 0; churnCtx.Err() == nil; i++ {
				sp := wire.FilterSpec{Mode: wire.FilterCorrelationID,
					Expr: "#churn-" + strconv.Itoa(g) + "-" + strconv.Itoa(i%64)}
				sub, err := c.Subscribe(churnCtx, *topicName, sp, 1)
				if err != nil || sub.Unsubscribe(churnCtx) != nil {
					return
				}
				churnOps.Add(1)
			}
		}()
	}

	// Tracing: the remembered send times of the stamped IDs give the
	// latencies and the IDs to fetch. Each delivered copy is one sample,
	// which is what "latency of a delivery" means under replication.
	var (
		measuring atomic.Bool
		ch0, ch1  uint64
		published atomic.Uint64
		traceMu   sync.Mutex // guards lat and traceSent
		lat       = stats.NewSummary()
		traceSent = make(map[uint64]time.Time)
	)
	wl := bench.WireLoad{
		Topic: *topicName, Addrs: addrs, Homes: subHomes, Selectors: *useSelectors,
		Publishers: *publishers, Matching: *matching, NonMatching: *nonMatching,
		Phase: bench.Phase{Batch: *batch, Rate: *rate, Seed: *seed, Warmup: *warmup, Measure: *measure,
			Mark: func(open bool) {
				measuring.Store(open)
				if open {
					ch0 = churnOps.Load()
					return
				}
				ch1 = churnOps.Load()
				cancelChurn()
			}},
	}
	if *traceSample > 0 {
		traceBase := trace.NewID(uint64(time.Now().UnixNano()), uint64(*seed))
		wl.Stamp = func(m *jms.Message, sent time.Time) {
			if n := published.Add(1); n%uint64(*traceSample) == 0 {
				m.Header.TraceID = trace.NewID(traceBase, n/uint64(*traceSample))
				traceMu.Lock()
				traceSent[m.Header.TraceID] = sent
				traceMu.Unlock()
			}
		}
		// Every delivery carries a TraceID (the client library auto-stamps
		// unset ones), so sampled messages are the ones with a remembered
		// send time, not the nonzero ones.
		wl.Deliver = func(m *jms.Message) {
			traceMu.Lock()
			if sent, ok := traceSent[m.Header.TraceID]; ok && measuring.Load() {
				lat.Add(time.Since(sent).Seconds())
			}
			traceMu.Unlock()
		}
	}
	w, err := bench.RunWire(wl)
	if err != nil {
		return err
	}
	// Every acked publish owes one delivery per matching subscriber,
	// whatever the topology. The grade is a count over the drained ledger,
	// not a ratio of the windowed rates below, which deliveries of
	// publishes from before the window (a forward hop behind) would move.
	elapsed := w.Elapsed.Seconds()
	expected := w.Acked * uint64(*matching)
	lost := int64(expected) - int64(w.Drained)
	var grade float64
	if w.Acked > 0 {
		grade = float64(w.Drained) / float64(w.Acked)
	}

	recvRate := float64(w.Received) / elapsed
	dispRate := float64(w.Delivered) / elapsed
	fmt.Fprintf(stdout, "window   : %.2fs (after %v warmup)\n", elapsed, *warmup)
	if *rate > 0 {
		fmt.Fprintf(stdout, "target   : %10.0f msgs/s (Poisson, seed %d)\n", *rate, *seed)
		// The generator's self-check over the whole run, warm-up included:
		// invalid means its own lag, not the broker, shaped the latencies.
		verdict := "invalid"
		if w.Pacing.Valid() {
			verdict = "valid"
		}
		fmt.Fprintf(stdout, "pacer    : lag p99 %v, achieved %.3f of the schedule, %s", w.Pacing.LagP99, w.Pacing.Achieved, verdict)
		if w.PacingErr != nil && !errors.Is(w.PacingErr, context.Canceled) {
			fmt.Fprintf(stdout, "; stopped early: %v", w.PacingErr)
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
		// The load loop has returned, so no hook touches lat any more.
		mean, _ := lat.Mean()
		p50, _ := lat.Quantile(0.5)
		if p99, err := lat.Quantile(0.99); err != nil {
			fmt.Fprintf(stdout, "latency  : no traced deliveries in the window\n")
		} else {
			fmt.Fprintf(stdout, "latency  : mean %s  p50 %s  p99 %s  (%d traced deliveries, 1 in %d sampled)\n",
				time.Duration(mean*float64(time.Second)), time.Duration(p50*float64(time.Second)),
				time.Duration(p99*float64(time.Second)), lat.N(), *traceSample)
		}
		if *traceHTTP != "" {
			printStageBreakdown(stdout, *traceHTTP, traceSent, mean)
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
func printStageBreakdown(stdout io.Writer, addr string, sampled map[uint64]time.Time, e2eMean float64) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	// Let the recorder's quiescence sweep (250ms by default) commit the
	// tail of the run before asking for span trees.
	time.Sleep(600 * time.Millisecond)
	cl := &http.Client{Timeout: 2 * time.Second}
	const maxFetch = 256
	sumNs, spans := make(map[string]int64), make(map[string]int64)
	var fetched, sojournNs int64
	for id := range sampled {
		if fetched == maxFetch {
			break
		}
		resp, err := cl.Get(base + "/trace/" + trace.FormatID(id))
		if err != nil {
			fmt.Fprintf(stdout, "stages   : fetch failed: %v\n", err)
			return
		}
		var tj trace.TraceJSON
		ok := resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&tj) == nil
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if !ok || tj.Skeleton || tj.SpanCount == 0 {
			continue
		}
		fetched++
		sojournNs += tj.TotalNs
		for _, sp := range tj.Spans {
			sumNs[sp.Stage] += sp.DurNs
			spans[sp.Stage]++
		}
	}
	if fetched == 0 {
		fmt.Fprintf(stdout, "stages   : no sampled IDs resolved at %s/trace (is jmsd running with -trace-sample?)\n", base)
		return
	}
	fmt.Fprintf(stdout, "stages   : %d of %d sampled IDs resolved at %s/trace\n", fetched, len(sampled), base)
	for _, st := range trace.Stages() {
		name := st.String()
		if spans[name] == 0 {
			continue
		}
		note := st.Layer()
		if st == trace.StageIngress {
			note += ", includes socket idle wait"
		}
		fmt.Fprintf(stdout, "  %-12s %12v/msg  (%d spans, %s)\n", name, time.Duration(sumNs[name]/fetched), spans[name], note)
	}
	fmt.Fprintf(stdout, "  %-12s %12v/msg  (broker enqueue→last transmit)\n",
		"sojourn", time.Duration(sojournNs/fetched))
	fmt.Fprintf(stdout, "  %-12s %12v/msg  (client publish→deliver)\n",
		"end-to-end", time.Duration(e2eMean*float64(time.Second)))
}
