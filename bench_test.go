// Root benchmark harness: one benchmark per table/figure of the paper
// (T1, F4, F5, F6, E3, F8–F12, F15) plus the ablation benches called out in
// DESIGN.md. Each benchmark regenerates its experiment's data series and
// reports a headline scalar via b.ReportMetric so regressions in the
// reproduced numbers are visible in benchmark output. The full rows/series
// are printed by cmd/jmsfigs and cmd/jmsbench.
package jmsperf_test

import (
	"context"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	jmsperf "repro"
	"repro/internal/bench"
	"repro/internal/broker"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/mg1"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/topic"
)

// BenchmarkTable1Fit regenerates Table I: a native measurement sweep over
// this repository's broker followed by the least-squares fit of
// (t_rcv, t_fltr, t_tx). Reported metric: the fit's R^2 (the linear model
// must describe a filter-scan broker almost perfectly).
func BenchmarkTable1Fit(b *testing.B) {
	cfg := bench.NativeConfig{
		FilterType: core.CorrelationIDFiltering,
		Publishers: 3,
		Warmup:     20 * time.Millisecond,
		Measure:    100 * time.Millisecond,
	}
	grid := bench.StudyGrid{NValues: []int{0, 40, 160}, RValues: []int{1, 8}}
	var r2 float64
	for i := 0; i < b.N; i++ {
		res, err := bench.RunNativeStudy(cfg, grid)
		if err != nil {
			b.Fatal(err)
		}
		r2 = res.Fit.R2
	}
	b.ReportMetric(r2, "fit-R2")
}

// BenchmarkFig4Throughput regenerates Figure 4 (overall throughput vs
// n_fltr for R in {1..40}, measured by the calibrated virtual-time broker
// vs Eq. 1). Reported metric: measured overall throughput at n_fltr=165,
// R=5 in msgs/s.
func BenchmarkFig4Throughput(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig4(core.CorrelationIDFiltering, 20000, 1)
		if err != nil {
			b.Fatal(err)
		}
		// Series for R=5 is index 2; last row is n=160 => n_fltr=165.
		rows := series[2].Rows
		ref = rows[len(rows)-1][1]
	}
	b.ReportMetric(ref, "msgs/s@n165,R5")
}

// BenchmarkFig5ServiceTime regenerates Figure 5 (E[B] vs n_fltr).
// Reported metric: E[B] in microseconds at n_fltr=1000, E[R]=10, corrID.
func BenchmarkFig5ServiceTime(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range series {
			if s.Name != "Fig5 correlation ID filtering E[R]=10" {
				continue
			}
			for _, row := range s.Rows {
				if row[0] == 1000 {
					ref = row[1] * 1e6
				}
			}
		}
	}
	b.ReportMetric(ref, "us@n1000,R10")
}

// BenchmarkFig6Capacity regenerates Figure 6 (capacity at rho=0.9).
// Reported metric: capacity in msgs/s at n_fltr=100, E[R]=1.
func BenchmarkFig6Capacity(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range series[0].Rows {
			if row[0] == 100 {
				ref = row[1]
			}
		}
	}
	b.ReportMetric(ref, "msgs/s@n100")
}

// BenchmarkEq3FilterBenefit regenerates the Section IV-A.2 break-even
// table. Reported metric: the single-filter correlation-ID break-even
// match probability (paper: 0.587).
func BenchmarkEq3FilterBenefit(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Eq3Table()
		if err != nil {
			b.Fatal(err)
		}
		ref = series[0].Rows[0][1]
	}
	b.ReportMetric(ref, "p-break-even")
}

// BenchmarkFig8CvarBernoulli regenerates Figure 8. Reported metric: the
// maximum cvar[B] across the sweep (paper: at most ~0.65).
func BenchmarkFig8CvarBernoulli(b *testing.B) {
	var maxCvar float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig8(nil)
		if err != nil {
			b.Fatal(err)
		}
		maxCvar = 0
		for _, s := range series {
			for _, row := range s.Rows {
				if row[1] > maxCvar {
					maxCvar = row[1]
				}
			}
		}
	}
	b.ReportMetric(maxCvar, "max-cvar")
}

// BenchmarkFig9CvarBinomial regenerates Figure 9. Reported metric: cvar[B]
// for correlation-ID filtering at n_fltr ~ 63, p=0.5 (the paper quotes
// ~0.064 in this region).
func BenchmarkFig9CvarBinomial(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig9([]float64{0.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range series[0].Rows {
			if row[0] >= 63 && ref == 0 {
				ref = row[1]
			}
		}
	}
	b.ReportMetric(ref, "cvar@n63")
}

// BenchmarkFig10MeanWait regenerates Figure 10. Reported metric:
// E[W]/E[B] at rho=0.9, cvar=0 (theory: 4.5).
func BenchmarkFig10MeanWait(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		w, err := mg1.MeanWaitNormalized(0.9, 0)
		if err != nil {
			b.Fatal(err)
		}
		ref = w
		if _, err := jmsperf.Fig10(nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(ref, "EW/EB@rho.9")
}

// BenchmarkFig11WaitCCDF regenerates Figure 11. Reported metric:
// P(W > 20*E[B]) at rho=0.9, cvar=0.4.
func BenchmarkFig11WaitCCDF(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig11(0.9, nil, 50, 51)
		if err != nil {
			b.Fatal(err)
		}
		tail := series[len(series)-1] // cvar = 0.4
		for _, row := range tail.Rows {
			if row[0] == 20 {
				ref = row[1]
			}
		}
	}
	b.ReportMetric(ref, "P(W>20EB)")
}

// BenchmarkFig12WaitQuantiles regenerates Figure 12. Reported metric: the
// 99.99% waiting-time quantile in units of E[B] at rho=0.9, cvar=0.4
// (paper: ~50).
func BenchmarkFig12WaitQuantiles(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig12(nil)
		if err != nil {
			b.Fatal(err)
		}
		s := series[len(series)-1] // cvar = 0.4
		for _, row := range s.Rows {
			if row[0] > 0.89 && row[0] < 0.91 {
				ref = row[2]
			}
		}
	}
	b.ReportMetric(ref, "Q9999/EB@rho.9")
}

// BenchmarkFig15PSRvsSSR regenerates Figure 15. Reported metric: the
// crossover n for m=100 subscribers (smallest publisher count at which PSR
// outperforms SSR).
func BenchmarkFig15PSRvsSSR(b *testing.B) {
	var ref float64
	for i := 0; i < b.N; i++ {
		series, err := jmsperf.Fig15(nil)
		if err != nil {
			b.Fatal(err)
		}
		cross := series[len(series)-1]
		for _, row := range cross.Rows {
			if row[0] == 100 {
				ref = row[1]
			}
		}
	}
	b.ReportMetric(ref, "crossover-n@m100")
}

// --- Ablation benches (DESIGN.md §5) ---------------------------------------

// BenchmarkAblationFilterIndex compares the paper's linear filter scan
// (FioranoMQ's behaviour, §III-B) against the fast engine's FilterIndex
// over the same subscription population, one leg per indexed filter form:
// exact correlation IDs collapse into one hash probe, disjoint "dev-[lo;hi]"
// ranges into one parse and a binary search, `zone = N` selectors into one
// property lookup and one hash probe. The range and selector legs run at two
// population sizes: the scan's ns/op scales with n, the index's must not.
// Every message matches exactly one rule.
func BenchmarkAblationFilterIndex(b *testing.B) {
	corrID := func(expr string) filter.Filter {
		f, err := filter.NewCorrelationID(expr)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	leg := func(name string, n int, rule func(i int) filter.Filter, msg *jms.Message) {
		reg := topic.NewRegistry()
		tp, err := reg.Configure("t")
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := reg.Subscribe("t", rule(i), nil); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(name+"/linear-scan", func(b *testing.B) {
			subs, _ := tp.Snapshot()
			b.ReportAllocs()
			matches := 0
			for i := 0; i < b.N; i++ {
				matches = 0
				for _, s := range subs {
					if s.Filter.Matches(msg) {
						matches++
					}
				}
			}
			if matches != 1 {
				b.Fatalf("matches = %d, want 1", matches)
			}
		})
		b.Run(name+"/filter-index", func(b *testing.B) {
			idx, _ := tp.Index()
			scratch := make([]*topic.Subscription, 0, 8)
			b.ReportAllocs()
			matches, evals := 0, 0
			for i := 0; i < b.N; i++ {
				var out []*topic.Subscription
				out, evals = idx.Match(msg, scratch[:0])
				matches = len(out)
			}
			if matches != 1 {
				b.Fatalf("matches = %d, want 1", matches)
			}
			b.ReportMetric(float64(evals), "evals/op")
		})
	}

	msg := jms.NewMessage("t")
	if err := msg.SetCorrelationID("dev-100250"); err != nil {
		b.Fatal(err)
	}
	if err := msg.SetInt32Property("zone", 100); err != nil {
		b.Fatal(err)
	}
	if err := msg.SetStringProperty("region", "us"); err != nil {
		b.Fatal(err)
	}
	exact := jms.NewMessage("t")
	if err := exact.SetCorrelationID("#0"); err != nil {
		b.Fatal(err)
	}
	leg("exact/n=160", 160, func(i int) filter.Filter { return corrID("#" + strconv.Itoa(i)) }, exact)
	for _, n := range []int{512, 8192} {
		leg("ranges/n="+strconv.Itoa(n), n, func(i int) filter.Filter {
			return corrID(fmt.Sprintf("dev-[%d;%d]", i*1000, i*1000+499))
		}, msg)
		leg("pivots/n="+strconv.Itoa(n), n, func(i int) filter.Filter {
			return filter.MustProperty(fmt.Sprintf("region <> 'eu' AND zone = %d", i))
		}, msg)
	}
}

// BenchmarkAblationDispatchSharding compares the faithful single dispatch
// worker against the fast engine at 1, 2 and 4 workers on one topic of n
// glob filters. Globs are a residual rule the FilterIndex cannot collapse,
// so every leg pays n evaluations per message and the deltas isolate the
// worker count. Publishers run in parallel (b.RunParallel, one per P), each
// on a publisher key of its own, so with several workers they are
// dispatched in parallel; an op ends when its message has been dispatched,
// not when it was admitted.
func BenchmarkAblationDispatchSharding(b *testing.B) {
	run := func(b *testing.B, n int, engine broker.Engine, shards int) {
		br := broker.New(broker.Options{
			InFlight: 1024, SubscriberBuffer: 1 << 16,
			Engine: engine, Shards: shards,
		})
		defer func() { _ = br.Close() }()
		if err := br.ConfigureTopic("t"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			f, err := filter.NewCorrelationID("#never-" + strconv.Itoa(i) + "-*")
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
		ctx := context.Background()
		var keys atomic.Uint64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			pub := br.Publisher(keys.Add(1) - 1)
			for pb.Next() {
				if err := pub.Publish(ctx, jms.NewMessage("t")); err != nil {
					b.Error(err)
					return
				}
			}
		})
		for br.Stats().Dispatched < uint64(b.N) {
			time.Sleep(50 * time.Microsecond)
		}
	}
	for _, n := range []int{64, 512, 4096} {
		for _, leg := range []struct {
			name   string
			engine broker.Engine
			shards int
		}{
			{"faithful", broker.EngineFaithful, 1},
			{"fast-1worker", broker.EngineFast, 1},
			{"fast-2workers", broker.EngineFast, 2},
			{"fast-4workers", broker.EngineFast, 4},
		} {
			b.Run(fmt.Sprintf("n=%d/%s", n, leg.name), func(b *testing.B) { run(b, n, leg.engine, leg.shards) })
		}
	}
}

// BenchmarkAblationReplicationAllocs measures allocations per published
// message at replication grade R=8 on both engines. The faithful path deep-
// clones the message R-1 times (property map + body copy each); the fast
// path hands out copy-on-write Shared views, so its allocs/op must come in
// below the faithful engine's.
func BenchmarkAblationReplicationAllocs(b *testing.B) {
	const replicas = 8
	body := make([]byte, 256)
	run := func(b *testing.B, engine broker.Engine) {
		br := broker.New(broker.Options{
			InFlight: 1024, SubscriberBuffer: 1 << 16,
			Engine: engine, Shards: 4,
		})
		defer func() { _ = br.Close() }()
		if err := br.ConfigureTopic("t"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < replicas; i++ {
			sub, err := br.Subscribe("t", nil)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range sub.Chan() {
				}
			}()
		}
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m := jms.NewMessage("t")
			m.SetBody(body)
			if err := m.SetStringProperty("region", "eu"); err != nil {
				b.Fatal(err)
			}
			if err := br.Publish(ctx, m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("faithful", func(b *testing.B) { run(b, broker.EngineFaithful) })
	b.Run("fast-cow", func(b *testing.B) { run(b, broker.EngineFast) })
}

// BenchmarkAblationGammaVsDES compares the cost of obtaining the 99.99%
// waiting-time quantile from the closed-form Gamma approximation against
// estimating it from a discrete-event simulation.
func BenchmarkAblationGammaVsDES(b *testing.B) {
	model := core.TableICorrelationID
	r, err := replication.NewBinomial(40, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	const nFltr = 45
	meanB := model.MeanServiceTime(nFltr, r.Mean())
	lambda := 0.9 / meanB

	b.Run("gamma-approx", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := mg1.MomentsFromReplication(model.ConstantPart(nFltr), model.TTx, r)
			if err != nil {
				b.Fatal(err)
			}
			q, err := mg1.NewQueue(lambda, m)
			if err != nil {
				b.Fatal(err)
			}
			dist, err := q.GammaApprox()
			if err != nil {
				b.Fatal(err)
			}
			if _, err := dist.Quantile(0.9999); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("des-estimate", func(b *testing.B) {
		cfg := sim.BrokerConfig{Model: model, NFltr: nFltr, R: r, Seed: 1}
		for i := 0; i < b.N; i++ {
			res, err := sim.SimulateWaiting(cfg, lambda, 100000, 5000)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := res.Waits.Quantile(0.9999); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationPushbackWindow measures publish throughput under
// different in-flight window sizes (the push-back knob).
func BenchmarkAblationPushbackWindow(b *testing.B) {
	for _, window := range []int{1, 64, 1024} {
		b.Run("inflight-"+strconv.Itoa(window), func(b *testing.B) {
			br := broker.New(broker.Options{InFlight: window, SubscriberBuffer: 1 << 16})
			defer func() { _ = br.Close() }()
			if err := br.ConfigureTopic("t"); err != nil {
				b.Fatal(err)
			}
			sub, err := br.Subscribe("t", nil)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range sub.Chan() {
				}
			}()
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := br.Publish(ctx, jms.NewMessage("t")); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClusterMesh compares publish cost on a single broker
// against a 3-member SSR mesh carrying the same filter population — the
// clustering extension's trade-off (extra receives vs. sharded scans).
func BenchmarkAblationClusterMesh(b *testing.B) {
	const totalFilters = 300
	drain := func(s *broker.Subscriber) {
		go func() {
			for range s.Chan() {
			}
		}()
	}
	newFilter := func(b *testing.B) filter.Filter {
		f, err := filter.NewCorrelationID("#never")
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	b.Run("single", func(b *testing.B) {
		br := broker.New(broker.Options{InFlight: 1024, SubscriberBuffer: 1 << 12})
		defer func() { _ = br.Close() }()
		if err := br.ConfigureTopic("t"); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < totalFilters; i++ {
			s, err := br.Subscribe("t", newFilter(b))
			if err != nil {
				b.Fatal(err)
			}
			drain(s)
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := br.Publish(ctx, jms.NewMessage("t")); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mesh-3", func(b *testing.B) {
		topo, err := cluster.NewTopology(cluster.TopologyConfig{
			Kind:    cluster.TopologySSR,
			Members: 3,
			Topics:  []string{"t"},
			Broker:  broker.Options{InFlight: 1024, SubscriberBuffer: 1 << 12},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = topo.Close() }()
		for i := 0; i < totalFilters; i++ {
			s, err := topo.Subscribe("t", newFilter(b), i)
			if err != nil {
				b.Fatal(err)
			}
			go func() {
				for range s.Chan() {
				}
			}()
		}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := topo.Publish(ctx, 0, jms.NewMessage("t")); err != nil {
				b.Fatal(err)
			}
		}
	})
}
