package bench

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/core"
)

// The runner's tests are count-based: no assertion reads the wall clock,
// so they run under -short and -race.

// TestRunnerGoroutinesFollowMatching: a scenario's goroutines are the
// publishers, one drain per matching subscription and the pipeline's
// workers, never one per installed subscription.
func TestRunnerGoroutinesFollowMatching(t *testing.T) {
	cfg := NativeConfig{
		FilterType:       core.CorrelationIDFiltering,
		Publishers:       3,
		Warmup:           10 * time.Millisecond,
		Measure:          30 * time.Millisecond,
		SubscriberBuffer: 8,
		Engine:           broker.EngineFast,
		Shards:           2,
	}
	const n, r = 5000, 2
	base := runtime.NumGoroutine()
	var peak atomic.Int64
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			if g := int64(runtime.NumGoroutine()); g > peak.Load() {
				peak.Store(g)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	ph, err := run(scenario{cfg: cfg, n: n, r: r})
	close(stop)
	sampler.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if ph.stats.Received == 0 {
		t.Fatal("saturated phase received nothing")
	}
	// The sharded pipeline runs a sequencer, the shards, a committer and
	// the goroutine closing the commit queue; one more is the sampler.
	growth := int(peak.Load()) - base
	if bound := cfg.Publishers + r + cfg.Shards + 3 + 1; growth > bound {
		t.Errorf("goroutines grew by %d during the phase, want <= %d (publishers %d + R %d + shards %d + 4), not O(n=%d)",
			growth, bound, cfg.Publishers, r, cfg.Shards, n)
	}
}

// TestRunnerHonoursEngine: the runner builds its broker from the config it
// is handed. On the fast engine the 2 000 equality selectors are one hash
// pivot, so a paced phase evaluates far fewer filters per message than the
// faithful linear scan, which evaluates every one. The tape accounts for
// every committed message.
func TestRunnerHonoursEngine(t *testing.T) {
	const n, r, messages = 2000, 1, 200
	for _, engine := range []broker.Engine{broker.EngineFaithful, broker.EngineFast} {
		cfg := NativeConfig{FilterType: core.ApplicationPropertyFiltering, Engine: engine, SubscriberBuffer: 8}
		ph, err := run(scenario{cfg: cfg, n: n, r: r, rate: 5000, messages: messages})
		if err != nil {
			t.Fatal(err)
		}
		if ph.stats.Received != messages || len(ph.tape) != messages || ph.overwritten != 0 {
			t.Fatalf("%v: received %d, tape %d (+%d overwritten), want %d each",
				engine, ph.stats.Received, len(ph.tape), ph.overwritten, messages)
		}
		var evals, replicas int
		for _, e := range ph.tape {
			evals += e.Evals
			replicas += e.R
		}
		if uint64(evals) != ph.stats.FilterEvals || uint64(replicas) != ph.stats.Dispatched || replicas != r*messages {
			t.Errorf("%v: tape Σevals %d Σ R %d, counters FilterEvals %d Dispatched %d, want R total %d",
				engine, evals, replicas, ph.stats.FilterEvals, ph.stats.Dispatched, r*messages)
		}
		perMsg := float64(ph.stats.FilterEvals) / float64(ph.stats.Received)
		switch engine {
		case broker.EngineFaithful:
			if perMsg != n+r {
				t.Errorf("faithful: %.1f filter evaluations per message, want the full scan %d", perMsg, n+r)
			}
		case broker.EngineFast:
			if perMsg >= n {
				t.Errorf("fast: %.1f filter evaluations per message, want fewer than %d", perMsg, n)
			}
		}
	}
}

// TestRunnerTapedSaturated: a taped saturated scenario on the faithful
// engine reads its mean service time off the tape, and every taped message
// evaluated the full scan of n + R filters.
func TestRunnerTapedSaturated(t *testing.T) {
	const n, r = 40, 3
	cfg := NativeConfig{
		FilterType: core.CorrelationIDFiltering,
		Publishers: 2,
		Warmup:     10 * time.Millisecond,
		Measure:    30 * time.Millisecond,
		Taped:      true,
	}
	res, err := MeasureScenario(cfg, n, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.TapedService <= 0 {
		t.Errorf("TapedService = %g, want > 0", res.TapedService)
	}
	if res.Evals != n+r {
		t.Errorf("Evals = %g, want n + R = %d", res.Evals, n+r)
	}
}

// TestTapedFit: the taped reduction recovers known Eq. 1 constants from
// synthetic points whose filter evaluations differ from both the installed
// filter count and R, so a reduction that fits the wrong covariate fails.
func TestTapedFit(t *testing.T) {
	const tRcv, tFltr, tTx = 4.1e-6, 6.3e-9, 2.9e-7
	var res StudyResult
	for _, n := range []int{0, 20, 80, 160} {
		for _, r := range []int{1, 5, 20} {
			evals := 3 + n/4 + 2*r
			eb := tRcv + float64(evals)*tFltr + float64(r)*tTx
			res.Points = append(res.Points, NativeResult{
				NFltr: n + r, R: r, Evals: float64(evals), TapedService: eb, MeanServiceTime: 2 * eb,
			})
		}
	}
	s, f, err := TapedFit(res)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want float64
	}{{"t_rcv", f.Model.TRcv, tRcv}, {"t_fltr", f.Model.TFltr, tFltr}, {"t_tx", f.Model.TTx, tTx}} {
		if math.Abs(c.got-c.want)/c.want > 1e-12 {
			t.Errorf("%s = %.17g, want %.17g", c.name, c.got, c.want)
		}
	}
	if len(s.Rows) != len(res.Points) {
		t.Fatalf("series has %d rows, want %d", len(s.Rows), len(res.Points))
	}
	if p, row := res.Points[4], s.Rows[4]; row[2] != p.Evals || row[3] != p.TapedService*1e6 || row[4] != p.MeanServiceTime*1e6 {
		t.Errorf("series row %v does not carry point %+v", row, p)
	}
	res.Points[0].TapedService = 0
	if _, _, err := TapedFit(res); err == nil {
		t.Error("a point without a taped service time was fitted")
	}
}
