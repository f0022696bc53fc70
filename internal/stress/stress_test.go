package stress

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/broker"
	"repro/internal/jms"
)

// Hard ceilings the wall enforces. They are deliberately loose against
// the measured values (roughly 3–5x headroom) so hardware variation does
// not flake CI, while still catching an accidental O(n) regression —
// e.g. reintroducing per-subscription snapshot copies or losing filter
// interning would blow through them by orders of magnitude.
const (
	// maxBytesPerSub bounds the marginal live-heap bytes per subscription
	// at the 10^5 population.
	maxBytesPerSub = 1024
	// maxRebuildAfterBatch bounds the Index() rebuild after a 64-op churn
	// batch on a 10^5 population: the rebuild is lazy and proportional to
	// the change batch, not the population.
	maxRebuildAfterBatch = 20 * time.Millisecond
	// maxRebuildAllocsPerOp bounds rebuild allocations per churned op.
	maxRebuildAllocsPerOp = 64
)

// soak reports whether the full-size soak legs (10^6 subscriptions, long
// churn) should run. They sit behind JMS_STRESS=1 / `make stress`.
func soak() bool { return os.Getenv("JMS_STRESS") == "1" }

// TestChurnStorm100k is the tentpole leg: a 10^5-subscription population
// survives churn storms with lazy, allocation-bounded index rebuilds and
// a bounded interner. The allocation ceiling, the interner bound and the
// post-storm probe are asserted always; the maxRebuildAfterBatch envelope
// only under -tags live (make conformance-live) or JMS_STRESS=1.
func TestChurnStorm100k(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	p, err := BuildPopulation(n, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Registry.TotalSubscriptions(); got != n {
		t.Fatalf("TotalSubscriptions = %d, want %d", got, n)
	}
	// Interning collapses the population's rules: three filter families
	// cycling 1024 rule strings each, regardless of n.
	if got := p.Registry.InternedRules(); got > 3*1024 {
		t.Errorf("InternedRules = %d, want <= %d", got, 3*1024)
	}

	rng := rand.New(rand.NewSource(7))
	p.Topic.Index() // settle the initial build before timing rebuilds

	storms := 20
	if testing.Short() {
		storms = 5
	}
	var worst time.Duration
	var worstAllocs uint64
	for i := 0; i < storms; i++ {
		const batch = 64
		elapsed, allocs, err := p.RebuildLatency(rng, batch)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed > worst {
			worst = elapsed
		}
		if allocs > worstAllocs {
			worstAllocs = allocs
		}
		if elapsed > maxRebuildAfterBatch {
			// A wall-clock envelope: asserted under -tags live and in the
			// soak, logged in tier-1, where a loaded host can miss it.
			msg := fmt.Sprintf("storm %d: rebuild after %d-op batch took %v (> %v)",
				i, batch, elapsed, maxRebuildAfterBatch)
			if liveEnvelopes || soak() {
				t.Error(msg)
			} else {
				t.Log("envelope miss (asserted under -tags live): " + msg)
			}
		}
		if allocs > batch*maxRebuildAllocsPerOp {
			t.Errorf("storm %d: rebuild allocated %d times for a %d-op batch (> %d/op)",
				i, allocs, batch, maxRebuildAllocsPerOp)
		}
	}
	t.Logf("population %d: worst rebuild %v, worst rebuild allocs %d", n, worst, worstAllocs)

	// Verify the index still matches correctly after the storms: probe an
	// exact literal against a linear scan of the snapshot.
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("lit-5"); err != nil {
		t.Fatal(err)
	}
	idx, _ := p.Topic.Index()
	subs, _ := p.Topic.Snapshot()
	want := 0
	for _, s := range subs {
		if s.Filter.Matches(m) {
			want++
		}
	}
	matched, _ := idx.Match(m, nil)
	if len(matched) != want {
		t.Fatalf("post-storm index matched %d, linear scan %d", len(matched), want)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if got := p.Registry.InternedRules(); got != 0 {
		t.Errorf("InternedRules after teardown = %d, want 0", got)
	}
}

// TestBytesPerSubscription pins the memory floor of the tentpole: the
// marginal live-heap cost per subscription stays under maxBytesPerSub at
// the 10^5 population.
func TestBytesPerSubscription(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 20_000
	}
	bytesPerSub, err := BytesPerSub(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("population %d: %.1f bytes/subscription", n, bytesPerSub)
	if bytesPerSub > maxBytesPerSub {
		t.Errorf("bytes/subscription = %.1f, ceiling %d", bytesPerSub, maxBytesPerSub)
	}
}

// TestSoakMillionSubscriptions is the 10^6 soak: population build, churn
// storm, memory and rebuild ceilings at full scale. Run via `make stress`
// (JMS_STRESS=1); it needs ~1 GiB of heap and tens of seconds.
func TestSoakMillionSubscriptions(t *testing.T) {
	if !soak() {
		t.Skip("set JMS_STRESS=1 (or run `make stress`) for the 10^6 soak")
	}
	const n = 1_000_000
	bytesPerSub, err := BytesPerSub(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("population %d: %.1f bytes/subscription", n, bytesPerSub)
	if bytesPerSub > maxBytesPerSub {
		t.Errorf("bytes/subscription = %.1f, ceiling %d", bytesPerSub, maxBytesPerSub)
	}

	p, err := BuildPopulation(n, 4096)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	p.Topic.Index()
	for i := 0; i < 50; i++ {
		const batch = 256
		elapsed, _, err := p.RebuildLatency(rng, batch)
		if err != nil {
			t.Fatal(err)
		}
		// The lazy rebuild must stay batch-proportional even at 10^6.
		if elapsed > 4*maxRebuildAfterBatch {
			t.Errorf("soak storm %d: rebuild took %v", i, elapsed)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSlowConsumerUnderChurn runs each slow-consumer policy on a live
// broker under a publish storm with churning subscribers and one
// deliberately stalled subscriber, asserting the policy's accounting
// invariant holds under concurrency:
//
//	block        every accepted message reaches every attached subscriber
//	drop-oldest  received + evicted covers every transmit to the slow sub
//	disconnect   the stalled subscriber is kicked, the fleet is unharmed
func TestSlowConsumerUnderChurn(t *testing.T) {
	msgs := 2000
	if testing.Short() {
		msgs = 400
	}
	policies := []broker.SlowConsumerPolicy{
		broker.SlowConsumerBlock,
		broker.SlowConsumerDropOldest,
		broker.SlowConsumerDisconnect,
	}
	for _, policy := range policies {
		policy := policy
		t.Run(policy.String(), func(t *testing.T) {
			t.Parallel()
			b := broker.New(broker.Options{
				SlowConsumer:     policy,
				SubscriberBuffer: 8,
				InFlight:         64,
			})
			defer b.Close()
			if err := b.ConfigureTopic("t"); err != nil {
				t.Fatal(err)
			}

			// Witness with a deep private buffer, drained continuously.
			witness, err := b.SubscribeBuffered("t", nil, 4*msgs)
			if err != nil {
				t.Fatal(err)
			}
			var witnessGot atomic.Uint64
			witnessDone := make(chan struct{})
			go func() {
				defer close(witnessDone)
				for range witness.Chan() {
					witnessGot.Add(1)
				}
			}()

			// The stalled subscriber: small buffer, never drained while the
			// storm runs (block pacing happens via the witness count).
			slow, err := b.SubscribeBuffered("t", nil, 4)
			if err != nil {
				t.Fatal(err)
			}

			// Churners keep the subscription table moving under the storm.
			var stop atomic.Bool
			var churnWG sync.WaitGroup
			for c := 0; c < 2; c++ {
				churnWG.Add(1)
				go func() {
					defer churnWG.Done()
					for !stop.Load() {
						s, err := b.SubscribeBuffered("t", nil, 4*msgs)
						if err != nil {
							return // broker closing
						}
						drained := make(chan struct{})
						go func() {
							defer close(drained)
							for {
								ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
								_, rerr := s.Receive(ctx)
								cancel()
								if rerr != nil {
									return
								}
							}
						}()
						time.Sleep(time.Millisecond)
						_ = s.Unsubscribe()
						<-drained
					}
				}()
			}

			pubCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			published := 0
			pubErr := make(chan error, 1)
			go func() {
				for i := 0; i < msgs; i++ {
					m := jms.NewMessage("t")
					if err := m.SetInt64Property("seq", int64(i)); err != nil {
						pubErr <- err
						return
					}
					if err := b.Publish(pubCtx, m); err != nil {
						pubErr <- err
						return
					}
				}
				pubErr <- nil
			}()

			if policy == broker.SlowConsumerBlock {
				// Under block the stalled subscriber wedges the pipeline:
				// drain it concurrently (slowly) or the publisher never
				// finishes. The delivery guarantee is then total.
				go func() {
					for {
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						_, rerr := slow.Receive(ctx)
						cancel()
						if rerr != nil {
							return
						}
					}
				}()
			}
			if err := <-pubErr; err != nil {
				t.Fatal(err)
			}
			published = msgs

			// Quiesce: the witness must see every published message.
			deadline := time.Now().Add(10 * time.Second)
			for witnessGot.Load() < uint64(published) {
				if time.Now().After(deadline) {
					t.Fatalf("witness got %d of %d", witnessGot.Load(), published)
				}
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)
			churnWG.Wait()

			st := b.Stats()
			switch policy {
			case broker.SlowConsumerBlock:
				if st.SlowDropped != 0 || st.SlowDisconnects != 0 {
					t.Errorf("block policy counted slow-consumer events: %+v", st)
				}
			case broker.SlowConsumerDropOldest:
				// Drain the stalled subscriber's residue; everything
				// transmitted to it was either received or evicted.
				received := 0
				for {
					ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
					_, rerr := slow.Receive(ctx)
					cancel()
					if rerr != nil {
						break
					}
					received++
				}
				if uint64(received)+st.SlowDropped < uint64(published) {
					t.Errorf("drop-oldest: received %d + dropped %d < published %d",
						received, st.SlowDropped, published)
				}
				if st.SlowDisconnects != 0 {
					t.Errorf("drop-oldest: SlowDisconnects = %d, want 0", st.SlowDisconnects)
				}
			case broker.SlowConsumerDisconnect:
				select {
				case <-slow.Gone():
				case <-time.After(5 * time.Second):
					t.Fatal("stalled subscriber was never kicked")
				}
				if !slow.SlowDisconnected() {
					t.Error("SlowDisconnected = false after kick")
				}
				if _, rerr := slow.Receive(context.Background()); !errors.Is(rerr, broker.ErrSlowConsumer) {
					// Residue may drain first.
					for {
						ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
						_, rerr = slow.Receive(ctx)
						cancel()
						if rerr != nil {
							break
						}
					}
					if !errors.Is(rerr, broker.ErrSlowConsumer) {
						t.Errorf("Receive after kick: %v, want ErrSlowConsumer", rerr)
					}
				}
				if st.SlowDisconnects < 1 {
					t.Errorf("SlowDisconnects = %d, want >= 1", st.SlowDisconnects)
				}
			}
		})
	}
}

// TestSweepSubscriptionScale logs the scale curve EXPERIMENTS.md X11
// records: marginal bytes/subscription and 64-op-batch rebuild latency at
// populations 10^3 → 10^6. Gated behind JMS_STRESS=1 (`make stress`).
func TestSweepSubscriptionScale(t *testing.T) {
	if !soak() {
		t.Skip("set JMS_STRESS=1 (or run `make stress`) for the scale sweep")
	}
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		bytesPerSub, err := BytesPerSub(n)
		if err != nil {
			t.Fatal(err)
		}
		p, err := BuildPopulation(n, 1024)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(3))
		p.Topic.Index()
		const storms = 10
		var worst, total time.Duration
		for i := 0; i < storms; i++ {
			elapsed, _, err := p.RebuildLatency(rng, 64)
			if err != nil {
				t.Fatal(err)
			}
			total += elapsed
			if elapsed > worst {
				worst = elapsed
			}
		}
		t.Logf("n=%-8d bytes/sub=%6.1f  rebuild(64-op batch) mean=%v worst=%v",
			n, bytesPerSub, total/storms, worst)
		if err := p.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
