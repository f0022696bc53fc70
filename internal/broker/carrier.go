package broker

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/jms"
	"repro/internal/topic"
)

// BatchCarrier is the pooled unit that moves one published batch through
// the pipeline — intake, then the dispatch worker — with zero steady-state
// allocations for the message slice the caller fills (Msgs).
//
// Ownership/recycle contract:
//
//   - Obtain a carrier with GetBatchCarrier, append to c.Msgs, and hand it
//     to PublishBatchCarrier.
//   - On a nil error the broker owns the carrier: the dispatch worker
//     recycles it to the pool after the batch's last transmit. The caller
//     must not touch the carrier (or c.Msgs) again.
//   - On a non-nil error ownership stays with the caller, who may Release
//     it (after unrecording dedupe claims etc.) or retry.
//   - Only the carrier recycles. The messages themselves are never pooled:
//     subscribers retain them indefinitely, so they stay ordinary GC-owned
//     values (the wire layer's MessageArena gives them chunk locality
//     instead). Recycling zeroes every retained pointer so a pooled carrier
//     never pins the previous batch's messages.
type BatchCarrier struct {
	// Msgs is the batch, in publish order. The broker retains it until the
	// batch commits; like PublishBatch, neither the slice nor the messages
	// may be modified after a successful hand-off.
	Msgs []*jms.Message
}

// maxCarrierMsgs bounds what the carrier pool retains, mirroring the
// maxPooledBuffer policy of the wire buffer pool: recycling the occasional
// huge batch's carrier would pin its message slice.
const maxCarrierMsgs = 4096

var carrierPool = sync.Pool{New: func() any { return new(BatchCarrier) }}

// GetBatchCarrier returns a pooled, empty carrier.
func GetBatchCarrier() *BatchCarrier { return carrierPool.Get().(*BatchCarrier) }

// Release returns a caller-owned carrier to the pool. Only call it when
// PublishBatchCarrier returned an error (or the carrier was never handed
// off); after a successful publish the dispatch worker recycles it.
func (c *BatchCarrier) Release() { c.recycle() }

// recycle zeroes every pointer the carrier retains and returns it to the
// pool. Called by the dispatch worker after the batch's last transmit
// (recycle-after-transmit), or by Release on error paths.
func (c *BatchCarrier) recycle() {
	if cap(c.Msgs) > maxCarrierMsgs {
		return
	}
	msgs := c.Msgs[:cap(c.Msgs)]
	for i := range msgs {
		msgs[i] = nil
	}
	c.Msgs = msgs[:0]
	carrierPool.Put(c)
}

// PublishBatchCarrier is Publisher(0).PublishBatchCarrier.
func (b *Broker) PublishBatchCarrier(ctx context.Context, c *BatchCarrier) error {
	return b.Publisher(0).PublishBatchCarrier(ctx, c)
}

// PublishBatchCarrier is PublishBatch for a pooled carrier: the batch in
// c.Msgs is delivered as one dispatch unit and the carrier travels with it
// to the dispatch worker, which recycles it after the last transmit. See
// the BatchCarrier ownership contract.
//
// A batch spanning several topics falls back to PublishBatch's run
// splitting; the carrier is then abandoned to the GC, which keeps the rare
// path correct and the common single-topic path allocation-free.
func (p Publisher) PublishBatchCarrier(ctx context.Context, c *BatchCarrier) error {
	msgs := c.Msgs
	switch len(msgs) {
	case 0:
		c.recycle()
		return nil
	case 1:
		if err := p.Publish(ctx, msgs[0]); err != nil {
			return err
		}
		c.recycle()
		return nil
	}
	name := msgs[0].Header.Topic
	for _, m := range msgs[1:] {
		if m.Header.Topic != name {
			// Multi-topic batch: split into runs, abandon the carrier.
			return p.PublishBatch(ctx, msgs)
		}
	}
	for _, m := range msgs {
		if err := m.Validate(); err != nil {
			return err
		}
	}
	b := p.b
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
	return p.send(ctx, d, pubUnit{batch: msgs, carrier: c}, len(msgs), true)
}
