package broker

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/jms"
	"repro/internal/trace"
)

// TestCommitReadsBeforeHandOff: a sole receiver gets the published message
// itself, so once the transmit stage has put it, the message is the
// receiver's to change. The commit side's tape entry, sojourn and flight
// record must use what it read before the put. The receiver here rewrites
// every field they use; under -race a read after the put is a reported race,
// and without it the tape's BodyBytes shows the receiver's change.
func TestCommitReadsBeforeHandOff(t *testing.T) {
	for _, engine := range []Engine{EngineFaithful, EngineFast} {
		t.Run(engine.String(), func(t *testing.T) {
			const n = 500
			rec := newTestRecorder(t, trace.Config{SampleEvery: 2})
			b := newTestBroker(t, Options{Engine: engine, WaitTiming: true, Tracer: rec, SubscriberBuffer: n})
			b.TakeTape("t") // arm the tape
			sub, err := b.Subscribe("t", nil)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					m, err := sub.Receive(ctx)
					if err != nil {
						t.Error(err)
						return
					}
					m.SetBody(nil)
					m.Header.TraceID = 0
				}
			}()
			for i := 1; i <= n; i++ {
				m := jms.NewMessage("t")
				m.SetBody([]byte("body"))
				m.Header.TraceID = trace.NewID(9, uint64(i))
				if err := b.Publish(ctx, m); err != nil {
					t.Fatal(err)
				}
			}
			wg.Wait()

			var tape []TapeEntry
			for deadline := time.Now().Add(5 * time.Second); len(tape) < n && time.Now().Before(deadline); {
				entries, _ := b.TakeTape("t")
				tape = append(tape, entries...)
				time.Sleep(time.Millisecond)
			}
			if len(tape) != n {
				t.Fatalf("tape holds %d entries, want %d", len(tape), n)
			}
			for i, e := range tape {
				if e.R != 1 || e.BodyBytes != len("body") || e.Enqueued.IsZero() {
					t.Fatalf("tape entry %d: R %d, BodyBytes %d, Enqueued %v; want the published message's", i, e.R, e.BodyBytes, e.Enqueued)
				}
			}
		})
	}
}
