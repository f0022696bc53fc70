package bench

import (
	"net"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/wire"
)

// TestWireLegLedger runs the load loop over a loopback wire server with
// r = 3 matching and 5 non-matching subscribers: a paced phase of a fixed
// count and a saturated batched one. Each closes its ledger, every acked
// publish delivered r times, and the broker's tape holds one entry per
// acked message, each replicated to r subscriptions. No assertion reads
// the wall clock, so the test runs under -short and -race.
func TestWireLegLedger(t *testing.T) {
	const r, n, messages = 3, 5, 300
	for _, c := range []struct {
		name  string
		phase Phase
	}{
		{"paced", Phase{Rate: 3000, Messages: messages, Seed: 1}},
		{"saturated", Phase{Batch: 4, Warmup: 5 * time.Millisecond, Measure: 20 * time.Millisecond}},
	} {
		t.Run(c.name, func(t *testing.T) {
			b := broker.New(broker.Options{WaitTiming: true})
			defer func() { _ = b.Close() }()
			if err := b.ConfigureTopic(loadedTopic); err != nil {
				t.Fatal(err)
			}
			b.TakeTape(loadedTopic) // the first take starts the recording
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			srv := wire.Serve(b, ln)
			defer func() { _ = srv.Close() }()
			addr := ln.Addr().String()

			w, err := RunWire(WireLoad{
				Phase: c.phase, Topic: loadedTopic, Addrs: []string{addr},
				Homes:      func(int) []string { return []string{addr} },
				Publishers: 2, Matching: r, NonMatching: n,
			})
			if err != nil {
				t.Fatal(err)
			}
			if w.PacingErr != nil {
				t.Fatalf("pacing: %v", w.PacingErr)
			}
			if w.Acked == 0 || w.Drained != r*w.Acked {
				t.Fatalf("ledger: %d acked, %d delivered, want %d × acked", w.Acked, w.Drained, r)
			}
			if c.phase.Messages > 0 && (w.Acked != messages || w.Received != messages) {
				t.Fatalf("paced: %d acked, %d in the window, want %d each", w.Acked, w.Received, messages)
			}

			// A message is taped at its commit, after its deliveries are put.
			var tape []broker.TapeEntry
			var overwritten uint64
			for deadline := time.Now().Add(10 * time.Second); uint64(len(tape))+overwritten < w.Acked && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				entries, lost := b.TakeTape(loadedTopic)
				tape, overwritten = append(tape, entries...), overwritten+lost
			}
			if uint64(len(tape))+overwritten != w.Acked {
				t.Fatalf("tape holds %d entries (+%d overwritten), want %d acked", len(tape), overwritten, w.Acked)
			}
			for i, e := range tape {
				if e.R != r {
					t.Fatalf("tape entry %d has R = %d, want %d", i, e.R, r)
				}
			}
		})
	}
}
