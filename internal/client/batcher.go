package client

import (
	"context"
	"sync"
	"time"

	"repro/internal/jms"
)

// batcher is the opt-in publish coalescer behind Options.BatchMax: Publish
// calls park their message here, and the accumulated batch is flushed as
// one MSG_BATCH frame when it reaches max messages or when linger has
// elapsed since the first one was buffered — the classic size/time-bounded
// batching tradeoff (larger batches amortize more per-frame overhead,
// linger bounds the latency a lone message can pay for company).
type batcher struct {
	c      *Client
	max    int
	linger time.Duration

	mu      sync.Mutex
	msgs    []*jms.Message
	waiters []chan error
	timer   *time.Timer
}

// publish enqueues m and waits for the flush that carries it. Cancelling
// ctx abandons the wait only: the message is already committed to the
// batch and may still reach the broker.
func (b *batcher) publish(ctx context.Context, m *jms.Message) error {
	done := make(chan error, 1)
	b.mu.Lock()
	b.msgs = append(b.msgs, m)
	b.waiters = append(b.waiters, done)
	if len(b.msgs) >= b.max {
		b.flushLocked()
	} else if b.timer == nil {
		b.timer = time.AfterFunc(b.linger, b.flush)
	}
	b.mu.Unlock()

	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// flush is the linger timer's callback.
func (b *batcher) flush() {
	b.mu.Lock()
	b.flushLocked()
	b.mu.Unlock()
}

// flushLocked hands the accumulated batch to a sender goroutine and resets
// the buffer. The send happens off the caller's lock so a slow broker ack
// never blocks further coalescing; frames leave in the order they reach
// the client's egress batch, which is flush order only when sends don't
// race — with concurrent publishers the broker's per-batch ordering (not
// cross-batch) is the guarantee.
func (b *batcher) flushLocked() {
	if len(b.msgs) == 0 {
		return
	}
	msgs, waiters := b.msgs, b.waiters
	b.msgs, b.waiters = nil, nil
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	go func() {
		// Background context: a linger-triggered flush belongs to no single
		// caller, and per-caller cancellation already detached above.
		err := b.c.PublishBatch(context.Background(), msgs)
		for _, w := range waiters {
			w <- err
		}
	}()
}
