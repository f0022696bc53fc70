// Command jmsbench runs the native measurement study against this
// repository's real broker, following the paper's methodology (saturated
// publishers, warm-up trim, repeated sweep over filter counts and
// replication grades), and fits the machine-local Table I constants.
//
// Usage:
//
//	jmsbench -type corrid -grid small -measure 200ms
//	jmsbench -type appprop -grid paper -publishers 5
//	jmsbench -identical          # the §III-B identical-filters experiment
//	jmsbench -engine fast        # measure the optimized dispatch engine
//	jmsbench -compare            # faithful-vs-fast throughput table
//	jmsbench -chaos              # model vs simulation vs broker-under-faults
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/broker"
	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/fit"
	"repro/internal/replication"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("jmsbench", flag.ContinueOnError)
	ftName := fs.String("type", "corrid", "filter type: corrid or appprop")
	publishers := fs.Int("publishers", 5, "saturated publisher goroutines (paper: 5)")
	warmup := fs.Duration("warmup", 100*time.Millisecond, "warm-up trim before measuring")
	measure := fs.Duration("measure", 500*time.Millisecond, "trimmed observation window")
	gridName := fs.String("grid", "small", "sweep grid: small or paper")
	identical := fs.Bool("identical", false, "run the identical-vs-different non-matching filters experiment")
	engineName := fs.String("engine", "faithful", "dispatch engine: "+strings.Join(broker.EngineNames(), " or "))
	shards := fs.Int("shards", 0, "fast engine: dispatch workers per topic, each publisher pinned to one (0 = auto)")
	compare := fs.Bool("compare", false, "run the sweep on both engines and print a faithful-vs-fast comparison table plus a batched-vs-unbatched publish row")
	batch := fs.Int("batch", 0, "coalesce publishes into batches of this size (0 or 1 = per-message); -compare uses it for its batched row (default 16)")
	stages := fs.Bool("stages", false, "tape each scenario's dispatch times and print the Eq. 1 fit of taped E[B] next to the throughput fit")
	chaos := fs.Bool("chaos", false, "run the conformance suite: closed forms vs simulator, then the live broker over a fault-injecting transport")
	gcPercent := fs.Int("gcpercent", -1, "GOGC target for the measurement process; -1 disables periodic GC behind a 2 GiB memory-limit backstop, 100 restores the Go default. The paper's FioranoMQ runs measured a fixed-heap JVM; pinning collector policy keeps the sweep measuring the dispatch path, not allocation policy.")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Respect an explicit GOGC from the environment; otherwise apply the
	// harness default so runs are comparable across shells.
	if os.Getenv("GOGC") == "" {
		if *gcPercent < 0 {
			debug.SetMemoryLimit(2 << 30)
		}
		debug.SetGCPercent(*gcPercent)
	}
	if *chaos {
		return runChaos(stdout)
	}
	engine, err := broker.ParseEngine(*engineName)
	if err != nil {
		return fmt.Errorf("-engine: %w", err)
	}

	var ft core.FilterType
	switch *ftName {
	case "corrid":
		ft = core.CorrelationIDFiltering
	case "appprop":
		ft = core.ApplicationPropertyFiltering
	default:
		return fmt.Errorf("unknown -type %q", *ftName)
	}

	cfg := bench.NativeConfig{
		FilterType: ft,
		Publishers: *publishers,
		Warmup:     *warmup,
		Measure:    *measure,
		Engine:     engine,
		Shards:     *shards,
		Batch:      *batch,
		Taped:      *stages,
	}

	if *identical {
		return runIdentical(cfg, stdout)
	}

	var grid bench.StudyGrid
	switch *gridName {
	case "paper":
		grid = bench.PaperGrid()
	case "small":
		grid = bench.StudyGrid{NValues: []int{0, 20, 80, 160}, RValues: []int{1, 5, 20}}
	default:
		return fmt.Errorf("unknown -grid %q (want small or paper)", *gridName)
	}

	if *compare {
		batchSize := *batch
		if batchSize < 2 {
			batchSize = 16
		}
		return runCompare(cfg, grid, batchSize, stdout)
	}

	fmt.Fprintf(stdout, "native study: %v, %s engine, %d publishers, %v warmup, %v window\n",
		ft, cfg.Engine, cfg.Publishers, cfg.Warmup, cfg.Measure)
	res, err := bench.RunNativeStudy(cfg, grid)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "\nmeasured points (n_fltr, R, received/s, dispatched/s, overall/s, E[B] us):\n")
	for _, p := range res.Points {
		fmt.Fprintf(stdout, "  %5d  %3d  %10.0f  %10.0f  %10.0f  %8.2f\n",
			p.NFltr, p.R, p.ReceivedRate, p.DispatchedRate, p.OverallRate, p.MeanServiceTime*1e6)
	}

	t1, err := bench.Table1Series(res, ft)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s", t1.String())
	fmt.Fprintf(stdout, "\nfit diagnostics: R2=%.6f RMSE=%.3gs maxResidual=%.3gs\n",
		res.Fit.R2, res.Fit.RMSE, res.Fit.MaxAbsResidual)

	if *stages {
		if err := printStages(res, stdout); err != nil {
			return err
		}
	}

	f4, err := bench.Fig4Native(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return bench.WriteAll(stdout, f4)
}

// printStages reports Eq. 1 from the service-time tape: the per-scenario
// series and the fit over taped E[B] next to the throughput fit (Table I)
// of the same runs.
func printStages(res bench.StudyResult, stdout io.Writer) error {
	series, taped, err := bench.TapedFit(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s", series.String())
	tput := res.Fit
	fmt.Fprintf(stdout, "\nEq. 1 constants, two derivations (us):\n")
	fmt.Fprintf(stdout, "  %-29s  %10s  %10s  %10s  %8s\n", "", "t_rcv", "t_fltr", "t_tx", "R2")
	for _, row := range []struct {
		name string
		f    fit.Result
	}{{"fit of taped E[B]", taped}, {"fit of 1/throughput (Table I)", tput}} {
		m := row.f.Model
		fmt.Fprintf(stdout, "  %-29s  %10.3f  %10.4f  %10.3f  %8.4f\n", row.name, m.TRcv*1e6, m.TFltr*1e6, m.TTx*1e6, row.f.R2)
	}
	fmt.Fprintf(stdout, "  %-29s  %10.3f  %10.3f  %10.3f\n", "taped-fit / throughput-fit",
		ratio(taped.Model.TRcv, tput.Model.TRcv), ratio(taped.Model.TFltr, tput.Model.TFltr), ratio(taped.Model.TTx, tput.Model.TTx))
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runCompare measures every grid scenario on both engines and prints the
// throughput side by side — what the paper's linear filter scan leaves on
// the table against an indexed, multi-worker, copy-on-write dispatch path.
func runCompare(cfg bench.NativeConfig, grid bench.StudyGrid, batchSize int, stdout io.Writer) error {
	cfg.Batch = 0
	fmt.Fprintf(stdout, "engine comparison: %v, %d publishers, %v warmup, %v window\n\n",
		cfg.FilterType, cfg.Publishers, cfg.Warmup, cfg.Measure)
	fmt.Fprintf(stdout, "  n_fltr    R   faithful msg/s       fast msg/s   speedup\n")
	for _, n := range grid.NValues {
		for _, r := range grid.RValues {
			faithfulCfg := cfg
			faithfulCfg.Engine = broker.EngineFaithful
			faithful, err := bench.MeasureScenario(faithfulCfg, n, r)
			if err != nil {
				return fmt.Errorf("faithful n=%d r=%d: %w", n, r, err)
			}
			fastCfg := cfg
			fastCfg.Engine = broker.EngineFast
			fast, err := bench.MeasureScenario(fastCfg, n, r)
			if err != nil {
				return fmt.Errorf("fast n=%d r=%d: %w", n, r, err)
			}
			fmt.Fprintf(stdout, "  %6d  %3d  %15.0f  %15.0f  %7.2fx\n",
				faithful.NFltr, r, faithful.ReceivedRate, fast.ReceivedRate,
				fast.ReceivedRate/faithful.ReceivedRate)
		}
	}
	return runCompareBatched(cfg, batchSize, stdout)
}

// runCompareBatched is the batching row of the comparison: the fast
// engine's publish-path throughput per message vs coalesced batches on
// the minimal filter population (n=0, R=1), isolating the per-arrival-
// unit overhead (in-flight slot, channel handoff, dispatch-stage entry)
// that batching amortizes.
func runCompareBatched(cfg bench.NativeConfig, batchSize int, stdout io.Writer) error {
	cfg.Engine = broker.EngineFast
	cfg.Batch = 0
	unbatched, err := bench.MeasureScenario(cfg, 0, 1)
	if err != nil {
		return fmt.Errorf("unbatched: %w", err)
	}
	cfg.Batch = batchSize
	batched, err := bench.MeasureScenario(cfg, 0, 1)
	if err != nil {
		return fmt.Errorf("batch %d: %w", batchSize, err)
	}
	fmt.Fprintf(stdout, "\nbatched publish path (fast engine, n_fltr=1, R=1):\n")
	fmt.Fprintf(stdout, "  per-message publishes   %12.0f msg/s\n", unbatched.ReceivedRate)
	fmt.Fprintf(stdout, "  batches of %-4d         %12.0f msg/s\n", batchSize, batched.ReceivedRate)
	fmt.Fprintf(stdout, "  speedup: %.2fx\n", batched.ReceivedRate/unbatched.ReceivedRate)
	return nil
}

// runChaos runs the conformance suite interactively: first the two
// model legs (closed forms vs Lindley simulator) for the paper's three
// replication families, then the live broker behind a fault-injecting
// transport, judged by its own tape: the recorded waits, the Lindley
// waits of the same arrivals and services, and the M/G/1 prediction at
// the tape's own arrival rate and service moments.
func runChaos(stdout io.Writer) error {
	det, err := replication.NewDeterministic(5)
	if err != nil {
		return err
	}
	sb, err := replication.NewScaledBernoulli(20, 0.25)
	if err != nil {
		return err
	}
	bin, err := replication.NewBinomial(20, 0.25)
	if err != nil {
		return err
	}
	families := []struct {
		name string
		r    replication.Distribution
	}{
		{"deterministic(5)", det},
		{"scaledBernoulli(20,0.25)", sb},
		{"binomial(20,0.25)", bin},
	}

	fmt.Fprintf(stdout, "conformance leg 1: closed forms vs Lindley simulator (D=1, t_tx=0.2, rho=0.7)\n")
	fmt.Fprintf(stdout, "  %-26s  %12s  %12s  %12s  %12s\n",
		"replication", "E[W] model", "E[W] sim", "q99 model", "q99 sim")
	for _, fam := range families {
		cfg := conformance.Config{D: 1.0, TTx: 0.2, R: fam.r, Rho: 0.7, Seed: 7}
		a, err := conformance.Analytic(cfg)
		if err != nil {
			return err
		}
		s, err := conformance.Simulated(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "  %-26s  %12.4f  %12.4f  %12.4f  %12.4f\n",
			fam.name, a.MeanWait, s.MeanWait, a.Quantile, s.Quantile)
	}

	fmt.Fprintf(stdout, "\nconformance leg 2: live broker over a fault-injecting transport\n")
	res, err := conformance.RunBroker(conformance.BrokerConfig{
		Rho:      0.6,
		Messages: 4000,
		Seed:     11,
		Faults:   faultnet.Config{ResetAfterBytes: 96 << 10},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "  tape E[B] = %.2fus, lambda = %.0f/s, rho = %.3f\n",
		res.MeanService*1e6, res.Lambda, res.Rho)
	fmt.Fprintf(stdout, "  %-10s  %12s  %12s\n", "", "E[W] (us)", "q99 (us)")
	for _, row := range []struct {
		name string
		p    conformance.Point
	}{{"recorded", res.Recorded}, {"Lindley", res.Lindley}, {"P-K", res.Predicted}} {
		fmt.Fprintf(stdout, "  %-10s  %12.2f  %12.2f\n", row.name, row.p.MeanWait*1e6, row.p.Quantile*1e6)
	}
	fmt.Fprintf(stdout, "  gap (recorded - Lindley, the dispatch floor) = %.2fus\n", res.Gap*1e6)
	fmt.Fprintf(stdout, "  transport resets=%d client reconnects=%d publish retries=%d duplicates suppressed=%d\n",
		res.Resets, res.Reconnects, res.PublishRetries, res.Duplicates)
	return nil
}

func runIdentical(cfg bench.NativeConfig, stdout io.Writer) error {
	const n = 120
	diffRes, err := bench.MeasureScenario(cfg, n, 1)
	if err != nil {
		return err
	}
	cfg.NonMatchingIdentical = true
	sameRes, err := bench.MeasureScenario(cfg, n, 1)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "identical-vs-different non-matching filters (n=%d, R=1):\n", n)
	fmt.Fprintf(stdout, "  different filters: %10.0f msgs/s received\n", diffRes.ReceivedRate)
	fmt.Fprintf(stdout, "  identical filters: %10.0f msgs/s received\n", sameRes.ReceivedRate)
	fmt.Fprintf(stdout, "  ratio: %.3f (a linear filter scan gains nothing from identical filters)\n",
		sameRes.ReceivedRate/diffRes.ReceivedRate)
	return nil
}
