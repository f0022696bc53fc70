package broker

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/jms"
)

// TestChurnStormDuringPublish races subscribe/unsubscribe storms against a
// continuous publisher on both engines and pins the unsubscribe contract:
// once Unsubscribe has returned and the residual queue is drained, no
// further message may appear in the handle's queue, and Receive reports
// ErrClosed. A long-lived witness subscriber checks the storm never tears
// delivery for bystanders: every message published while it was attached
// arrives, in order. Run under -race this also exercises the lock-free
// index publication end to end through the dispatch path.
func TestChurnStormDuringPublish(t *testing.T) {
	for _, eng := range []Engine{EngineFaithful, EngineFast} {
		eng := eng
		t.Run(eng.String(), func(t *testing.T) {
			t.Parallel()
			b := newTestBroker(t, Options{Engine: eng, SubscriberBuffer: 8})

			// Witness: attached for the whole storm, drained continuously.
			witness, err := b.SubscribeBuffered("t", nil, 256)
			if err != nil {
				t.Fatal(err)
			}
			var witnessed atomic.Uint64
			witnessDone := make(chan error, 1)
			go func() {
				var last int64
				for m := range witness.Chan() {
					seq, err := m.Int64Property("seq")
					if err != nil {
						witnessDone <- err
						return
					}
					if seq != last+1 {
						witnessDone <- errors.New("witness saw seq " +
							strconv.FormatInt(seq, 10) + " after " + strconv.FormatInt(last, 10))
						return
					}
					last = seq
					witnessed.Add(1)
				}
				witnessDone <- nil
			}()

			var published atomic.Int64
			var stop atomic.Bool
			pubDone := make(chan error, 1)
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				for !stop.Load() {
					m := jms.NewMessage("t")
					if err := m.SetInt64Property("seq", published.Load()+1); err != nil {
						pubDone <- err
						return
					}
					if err := b.Publish(ctx, m); err != nil {
						pubDone <- err
						return
					}
					published.Add(1)
				}
				pubDone <- nil
			}()

			const churners = 4
			rounds := 50
			if testing.Short() {
				rounds = 15
			}
			var wg sync.WaitGroup
			errCh := make(chan error, churners)
			ghosts := make(chan *Subscriber, churners*rounds)
			for c := 0; c < churners; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						var f filter.Filter
						if i%2 == 0 {
							f = filter.MustProperty("seq > " + strconv.Itoa(i))
						}
						s, err := b.Subscribe("t", f)
						if err != nil {
							errCh <- err
							return
						}
						// Receive a little (or not at all) before leaving, so
						// unsubscribes hit empty, partial and full queues.
						for r := 0; r < i%3; r++ {
							ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
							_, rerr := s.Receive(ctx)
							cancel()
							if rerr != nil && !errors.Is(rerr, context.DeadlineExceeded) {
								errCh <- rerr
								return
							}
						}
						if err := s.Unsubscribe(); err != nil {
							errCh <- err
							return
						}
						// Contract: residual messages may be drained, but once
						// the queue is empty after Unsubscribe returned, it
						// must stay empty forever.
						drainQueued(s)
						if _, rerr := s.Receive(context.Background()); !errors.Is(rerr, ErrClosed) {
							errCh <- errors.New("Receive after Unsubscribe: " +
								"want ErrClosed, got " + errString(rerr))
							return
						}
						ghosts <- s
					}
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}

			// Quiesce: note the publish count, stop, and wait for the
			// pipeline to dispatch everything that was accepted.
			stop.Store(true)
			if err := <-pubDone; err != nil {
				t.Fatal(err)
			}
			total := uint64(published.Load())
			deadline := time.Now().Add(5 * time.Second)
			for witnessed.Load() < total {
				if time.Now().After(deadline) {
					t.Fatalf("witness received %d of %d published", witnessed.Load(), total)
				}
				time.Sleep(time.Millisecond)
			}

			// No ghost queue may have received anything after its
			// post-unsubscribe drain — not even from a dispatch that held
			// an older index snapshot.
			close(ghosts)
			for s := range ghosts {
				if n := len(drainQueued(s)); n != 0 {
					t.Fatalf("unsubscribed handle received %d messages after drain", n)
				}
			}
			if got := b.NumFilters(); got != 1 {
				t.Errorf("NumFilters after storm = %d, want 1 (the witness)", got)
			}

			// Close (not Unsubscribe) so the witness channel is closed and
			// its drain loop exits.
			if err := b.Close(); err != nil {
				t.Fatal(err)
			}
			if err := <-witnessDone; err != nil {
				t.Error(err)
			}
		})
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}
