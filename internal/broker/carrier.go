package broker

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/jms"
	"repro/internal/topic"
)

// BatchCarrier is the pooled unit that moves one published batch through
// the whole pipeline — intake, sequencing, match workers, ordered commit —
// with zero steady-state allocations. It bundles the message slice the
// caller fills (Msgs) with the match-stage scratch (member results and the
// subscriber backing array) that the sharded workers would otherwise
// allocate per batch.
//
// Ownership/recycle contract:
//
//   - Obtain a carrier with GetBatchCarrier, append to c.Msgs, and hand it
//     to Broker.PublishBatchCarrier.
//   - On a nil error the broker owns the carrier: the pipeline's committing
//     goroutine recycles it to the pool after the batch's last transmit.
//     The caller must not touch the carrier (or c.Msgs) again.
//   - On a non-nil error ownership stays with the caller, who may Release
//     it (after unrecording dedupe claims etc.) or retry.
//   - Only the carrier and its scratch recycle. The messages themselves are
//     never pooled: subscribers retain them indefinitely, so they stay
//     ordinary GC-owned values (the wire layer's MessageArena gives them
//     chunk locality instead). Recycling zeroes every retained pointer so a
//     pooled carrier never pins the previous batch's messages.
type BatchCarrier struct {
	// Msgs is the batch, in publish order. The broker retains it until the
	// batch commits; like PublishBatch, neither the slice nor the messages
	// may be modified after a successful hand-off.
	Msgs []*jms.Message

	// members and buf are the match-stage scratch: one seqResult per
	// message, and the shared backing array match results are appended to.
	members []seqResult
	buf     []*Subscriber
}

// maxCarrierMsgs bounds what the carrier pool retains, mirroring the
// maxPooledBuffer policy of the wire buffer pool: recycling the occasional
// huge batch's carrier would pin its scratch.
const maxCarrierMsgs = 4096

var carrierPool = sync.Pool{New: func() any { return new(BatchCarrier) }}

// GetBatchCarrier returns a pooled, empty carrier.
func GetBatchCarrier() *BatchCarrier { return carrierPool.Get().(*BatchCarrier) }

// Release returns a caller-owned carrier to the pool. Only call it when
// PublishBatchCarrier returned an error (or the carrier was never handed
// off); after a successful publish the pipeline recycles the carrier.
func (c *BatchCarrier) Release() { c.recycle() }

// memberScratch returns the carrier's per-member result scratch, grown to n.
func (c *BatchCarrier) memberScratch(n int) []seqResult {
	if cap(c.members) < n {
		c.members = make([]seqResult, n)
	}
	return c.members[:n]
}

// subScratch returns the carrier's subscriber backing array, emptied.
func (c *BatchCarrier) subScratch(n int) []*Subscriber {
	if cap(c.buf) < n {
		c.buf = make([]*Subscriber, 0, n)
	}
	return c.buf[:0]
}

// recycle zeroes every pointer the carrier retains and returns it to the
// pool. Called by the pipeline's committing goroutine after the batch's
// last transmit (recycle-after-transmit), or by Release on error paths.
func (c *BatchCarrier) recycle() {
	if cap(c.Msgs) > maxCarrierMsgs {
		return
	}
	msgs := c.Msgs[:cap(c.Msgs)]
	for i := range msgs {
		msgs[i] = nil
	}
	c.Msgs = msgs[:0]
	members := c.members[:cap(c.members)]
	for i := range members {
		members[i] = seqResult{}
	}
	c.members = members[:0]
	buf := c.buf[:cap(c.buf)]
	for i := range buf {
		buf[i] = nil
	}
	c.buf = buf[:0]
	carrierPool.Put(c)
}

// PublishBatchCarrier is PublishBatch for a pooled carrier: the batch in
// c.Msgs is delivered as one dispatch unit and the carrier travels with it
// through the pipeline, to be recycled by the committing goroutine after
// the last transmit. See the BatchCarrier ownership contract.
//
// A batch spanning several topics falls back to PublishBatch's run
// splitting; the carrier is then abandoned to the GC (its scratch cannot be
// shared by concurrently dispatching units), which keeps the rare path
// correct and the common single-topic path allocation-free.
func (b *Broker) PublishBatchCarrier(ctx context.Context, c *BatchCarrier) error {
	msgs := c.Msgs
	switch len(msgs) {
	case 0:
		c.recycle()
		return nil
	case 1:
		if err := b.Publish(ctx, msgs[0]); err != nil {
			return err
		}
		c.recycle()
		return nil
	}
	name := msgs[0].Header.Topic
	for _, m := range msgs[1:] {
		if m.Header.Topic != name {
			// Multi-topic batch: split into runs, abandon the carrier.
			return b.PublishBatch(ctx, msgs)
		}
	}
	for _, m := range msgs {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return ErrClosed
	}
	d, ok := b.dispatchers[name]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", topic.ErrNoSuchTopic, name)
	}
	if b.opts.WaitObserver != nil || d.tt != nil || b.opts.Tracer != nil {
		now := b.now()
		for _, m := range msgs {
			if b.opts.WaitObserver != nil && m.Header.Timestamp.IsZero() {
				m.Header.Timestamp = now
			}
			if d.tt != nil || b.opts.Tracer != nil {
				m.EnqueuedAt = now
			}
		}
	}
	select {
	case d.in <- pubUnit{batch: msgs, carrier: c}:
		b.countAdd(&b.received, uint64(len(msgs)))
		if d.tt != nil {
			d.tt.received.Add(uint64(len(msgs)))
			d.tt.batchM.ObserveValue(float64(len(msgs)))
		}
		return nil
	case <-d.stop:
		return ErrClosed
	case <-ctx.Done():
		return ctx.Err()
	}
}
