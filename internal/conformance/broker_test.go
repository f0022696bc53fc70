package conformance

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/faultnet"
)

// TestBrokerConformance runs the live leg twice, over a clean transport
// and over one that kills connections on a byte budget, each loaded by a
// reliable client. Tier-1 asserts what does not depend on the machine's
// speed: the transport hurt, the reliability layer carried every message
// onto the tape, and the tape is one work-conserving FIFO server's. The
// wall-clock envelope is the live half.
func TestBrokerConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock run")
	}
	if raceEnabled {
		t.Skip("race instrumentation slows the 30 000-filter scan ~10x, stretching the paced phase to minutes")
	}
	for _, leg := range []struct {
		name   string
		faults faultnet.Config
	}{
		{"clean", faultnet.Config{}},
		{"chaos", faultnet.Config{ResetAfterBytes: 96 << 10}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			cfg := BrokerConfig{Rho: 0.6, Messages: 4000, Warmup: 400, Seed: 11, Faults: leg.faults}
			res, err := RunBroker(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("probe E[B]=%.1fus, tape E[B]=%.1fus lambda=%.0f/s rho=%.3f gap=%.1fus",
				res.ProbeService*1e6, res.MeanService*1e6, res.Lambda, res.Rho, res.Gap*1e6)
			t.Logf("mean/q99 recorded %.1f/%.1fus lindley %.1f/%.1fus predicted %.1f/%.1fus",
				res.Recorded.MeanWait*1e6, res.Recorded.Quantile*1e6,
				res.Lindley.MeanWait*1e6, res.Lindley.Quantile*1e6,
				res.Predicted.MeanWait*1e6, res.Predicted.Quantile*1e6)
			t.Logf("resets=%d reconnects=%d publishRetries=%d duplicatesSuppressed=%d",
				res.Resets, res.Reconnects, res.PublishRetries, res.Duplicates)

			// Every message is on the tape exactly once, and the tape is
			// one FIFO server's.
			if len(res.Tape) != cfg.Messages {
				t.Errorf("tape holds %d entries, want %d", len(res.Tape), cfg.Messages)
			}
			if err := CheckTape(res.Tape); err != nil {
				t.Error(err)
			}
			// The faulty transport must actually have hurt, and the
			// reliability layer must have carried every message through
			// regardless.
			if leg.faults.ResetAfterBytes > 0 {
				if res.Resets < 2 {
					t.Errorf("Resets = %d, want >= 2: the fault budget injected almost nothing", res.Resets)
				}
				if res.Reconnects < 1 {
					t.Errorf("Reconnects = %d, want >= 1", res.Reconnects)
				}
			} else if res.Resets != 0 {
				t.Errorf("clean transport reset %d connections", res.Resets)
			}

			// Live envelope, a same-regime band (a factor ~3 plus a floor
			// absorbing timer granularity): Lindley-on-tape E[W] and q99
			// against P-K and the Eq. 20 quantile from the tape's own λ̂
			// and E[B^k]. make conformance-live, 2-core host, 2026-10-15:
			// 4/5 (clean 4/5, chaos 5/5).
			envelope(t, CheckAgreement(res.Lindley, res.Predicted, 0.70, 100e-6))

			if *recordTapes {
				const keep = 2000
				comment := fmt.Sprintf("RunBroker %s leg, rho %.1f, %d filters, seed %d: loaded-phase entries %d..%d (after the warm-up), recorded %s on %d CPUs (GOMAXPROCS %d)",
					leg.name, cfg.Rho, cfg.withDefaults().NFltr, cfg.Seed, cfg.Warmup, cfg.Warmup+keep-1,
					time.Now().Format("2006-01-02"), runtime.NumCPU(), runtime.GOMAXPROCS(0))
				if err := writeTape(tapePath(leg.name), comment, res.Tape[cfg.Warmup:cfg.Warmup+keep]); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
