package broker

import (
	"context"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/jms"
)

// drainN receives n messages from sub or fails the test.
func drainN(t *testing.T, sub *Subscriber, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		if _, err := sub.Receive(ctx); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
	}
}

// waitTelemetry polls until the topic's sojourn count reaches n (the
// sojourn is recorded after the last transmit, slightly after the
// subscriber sees the message).
func waitTelemetry(t *testing.T, b *Broker, topic string, n uint64) TopicTelemetry {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		tel := b.Telemetry()[topic]
		if tel.Sojourn.Count >= n {
			return tel
		}
		if time.Now().After(deadline) {
			t.Fatalf("telemetry never reached %d sojourns: %+v", n, tel)
		}
		time.Sleep(time.Millisecond)
	}
}

func testWaitTracing(t *testing.T, opts Options) {
	opts.WaitTiming = true
	b := newTestBroker(t, opts)
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		publishCorr(t, b, "#0")
	}
	drainN(t, sub, n)
	tel := waitTelemetry(t, b, "t", n)

	if tel.Received != n {
		t.Errorf("Received = %d, want %d", tel.Received, n)
	}
	if tel.Wait.Count != n || tel.Sojourn.Count != n {
		t.Errorf("wait/sojourn counts = %d/%d, want %d", tel.Wait.Count, tel.Sojourn.Count, n)
	}
	// Sojourn = wait + service per message, so the sums must order.
	if tel.Sojourn.Sum < tel.Wait.Sum {
		t.Errorf("sojourn sum %d < wait sum %d", tel.Sojourn.Sum, tel.Wait.Sum)
	}
}

func TestWaitTracingFaithful(t *testing.T) {
	testWaitTracing(t, Options{Engine: EngineFaithful})
}

func TestWaitTracingFast(t *testing.T) {
	testWaitTracing(t, Options{Engine: EngineFast, Shards: 4})
}

// TestTelemetryOffByDefault: without WaitTiming there is no tracing state
// and Telemetry stays empty — the hot path must not pay for it.
func TestTelemetryOffByDefault(t *testing.T) {
	b := newTestBroker(t, Options{})
	sub, err := b.Subscribe("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	publishCorr(t, b, "#0")
	drainN(t, sub, 1)
	if tel := b.Telemetry(); len(tel) != 0 {
		t.Errorf("Telemetry without WaitTiming = %v", tel)
	}
}

// TestTracedExpiredMessage: an expired message contributes a wait
// observation (it waited) but no sojourn (it was never committed).
func TestTracedExpiredMessage(t *testing.T) {
	b := newTestBroker(t, Options{WaitTiming: true})
	fixed := time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	b.now = func() time.Time { return fixed }
	m := jms.NewMessage("t")
	m.Header.Expiration = fixed.Add(-time.Second)
	if err := b.Publish(context.Background(), m); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		tel := b.Telemetry()["t"]
		if tel.Wait.Count == 1 {
			if tel.Sojourn.Count != 0 {
				t.Errorf("expired message recorded a sojourn: %+v", tel)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("wait never observed: %+v", tel)
		}
		time.Sleep(time.Millisecond)
	}
}

// tapeMessage is message i of a tape phase: correlation IDs cycle through
// two, one and zero matching subscribers, and every seventh message is
// already expired when it is dispatched.
func tapeMessage(t *testing.T, i int) *jms.Message {
	t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID([]string{"#0", "#1", "#7"}[i%3]); err != nil {
		t.Fatal(err)
	}
	m.Body = make([]byte, i%5)
	if i%7 == 6 {
		m.Header.Expiration = time.Now().Add(-time.Hour)
	}
	return m
}

// TestTapeAccounting checks, on both engines, with one worker and four,
// and on every publish path, that a phase's tape is the per-message
// account of the broker counters over the same phase: one entry per
// committed message, and the entries' R and evals summing to the
// Dispatched and FilterEvals deltas. Counts only; no assertion reads the wall clock.
func TestTapeAccounting(t *testing.T) {
	engines := []struct {
		name string
		opts Options
	}{
		{"faithful", Options{Engine: EngineFaithful}},
		{"fast-serial", Options{Engine: EngineFast, Shards: 1}},
		{"fast-sharded", Options{Engine: EngineFast, Shards: 4}},
	}
	const n = 210
	publish := map[string]func(t *testing.T, b *Broker){
		"single": func(t *testing.T, b *Broker) {
			for i := 0; i < n; i++ {
				if err := b.Publish(context.Background(), tapeMessage(t, i)); err != nil {
					t.Fatal(err)
				}
			}
		},
		"batch": func(t *testing.T, b *Broker) {
			for i := 0; i < n; i += 10 {
				msgs := make([]*jms.Message, 10)
				for k := range msgs {
					msgs[k] = tapeMessage(t, i+k)
				}
				if err := b.PublishBatch(context.Background(), msgs); err != nil {
					t.Fatal(err)
				}
			}
		},
		"carrier": func(t *testing.T, b *Broker) {
			for i := 0; i < n; i += 10 {
				c := GetBatchCarrier()
				for k := 0; k < 10; k++ {
					c.Msgs = append(c.Msgs, tapeMessage(t, i+k))
				}
				if err := b.PublishBatchCarrier(context.Background(), c); err != nil {
					t.Fatal(err)
				}
			}
		},
	}
	for _, eng := range engines {
		for _, path := range []string{"single", "batch", "carrier"} {
			t.Run(eng.name+"/"+path, func(t *testing.T) {
				opts := eng.opts
				opts.WaitTiming = true
				opts.SubscriberBuffer = 2 * n
				b := newTestBroker(t, opts)
				for _, id := range []string{"#0", "#0", "#1", "#2", "#3", "#[4;6]"} {
					f, err := filter.NewCorrelationID(id)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := b.Subscribe("t", f); err != nil {
						t.Fatal(err)
					}
				}
				// A warm-up message before the tape is taken stays off it.
				publishCorr(t, b, "#0")
				waitTelemetry(t, b, "t", 1)
				if entries, _ := b.TakeTape("t"); entries != nil {
					t.Fatalf("first TakeTape returned %d entries", len(entries))
				}
				before := b.Stats()
				publish[path](t, b)
				waitFor(t, func() bool {
					s := b.Stats()
					return b.Telemetry()["t"].Sojourn.Count+s.Expired-before.Expired == 1+n
				})
				d := b.Stats()
				entries, overwritten := b.TakeTape("t")

				received, expired := d.Received-before.Received, d.Expired-before.Expired
				if received != n || expired != n/7 {
					t.Fatalf("phase received %d expired %d, want %d and %d", received, expired, n, n/7)
				}
				if overwritten != 0 || uint64(len(entries)) != received-expired {
					t.Fatalf("tape holds %d entries (%d overwritten), want Received−Expired = %d",
						len(entries), overwritten, received-expired)
				}
				var sumR, sumEvals uint64
				for i, e := range entries {
					if e.Enqueued.IsZero() || e.Start.Before(e.Enqueued) || e.End.Before(e.Start) {
						t.Fatalf("entry %d stamps out of order: %+v", i, e)
					}
					sumR += uint64(e.R)
					sumEvals += uint64(e.Evals)
				}
				if want := d.Dispatched - before.Dispatched; sumR != want {
					t.Errorf("Σ R = %d, want Dispatched delta %d", sumR, want)
				}
				if want := d.FilterEvals - before.FilterEvals; sumEvals != want {
					t.Errorf("Σ evals = %d, want FilterEvals delta %d", sumEvals, want)
				}
				if got, _ := b.TakeTape("t"); len(got) != 0 {
					t.Errorf("second TakeTape returned %d entries, want the tape emptied", len(got))
				}
			})
		}
	}
}

// TestTapeOverwrite: past TapeCapacity the ring keeps exactly the newest
// TapeCapacity entries, in commit order, and counts the rest.
func TestTapeOverwrite(t *testing.T) {
	b := newTestBroker(t, Options{WaitTiming: true})
	if _, err := b.SubscribeBuffered("t", nil, TapeCapacity+200); err != nil {
		t.Fatal(err)
	}
	b.TakeTape("t")
	const batch, extra = 64, 128
	for i := 0; i < TapeCapacity+extra; i += batch {
		msgs := make([]*jms.Message, batch)
		for k := range msgs {
			msgs[k] = jms.NewMessage("t")
			msgs[k].Body = make([]byte, (i+k)%251)
		}
		if err := b.PublishBatch(context.Background(), msgs); err != nil {
			t.Fatal(err)
		}
	}
	waitTelemetry(t, b, "t", TapeCapacity+extra)
	entries, overwritten := b.TakeTape("t")
	if len(entries) != TapeCapacity || overwritten != extra {
		t.Fatalf("tape = %d entries, %d overwritten; want %d and %d",
			len(entries), overwritten, TapeCapacity, extra)
	}
	for i, e := range entries {
		if want := (extra + i) % 251; e.BodyBytes != want {
			t.Fatalf("entry %d body %d bytes, want %d (oldest %d overwritten, commit order kept)",
				i, e.BodyBytes, want, extra)
		}
	}
}

// TestTapeOffWithoutWaitTiming: no WaitTiming, no tape.
func TestTapeOffWithoutWaitTiming(t *testing.T) {
	b := newTestBroker(t, Options{})
	b.TakeTape("t")
	publishCorr(t, b, "#0")
	waitFor(t, func() bool { return b.Stats().Received == 1 })
	if entries, _ := b.TakeTape("t"); entries != nil {
		t.Errorf("tape without WaitTiming = %d entries", len(entries))
	}
}
