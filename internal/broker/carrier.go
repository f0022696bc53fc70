package broker

import (
	"context"
	"sync"

	"repro/internal/jms"
)

// BatchCarrier is the pooled unit that moves one publish through the
// pipeline — intake, then the dispatch worker — with zero steady-state
// allocations for the message slice the caller fills (Msgs). Every publish
// is one carrier unit: a single message is a batch of one.
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
	// Msgs is the batch, in publish order, each message in it once. The
	// broker retains it until the batch commits; like PublishBatch, neither
	// the slice nor the messages may be modified after a successful
	// hand-off. The messages are the broker's from then on: the fast
	// engine delivers each one itself to its last outbox run instead of a
	// replica (see Replicator).
	Msgs []*jms.Message
	// borrowed marks a carrier Publish or PublishBatch filled with its
	// caller's messages: they stay the caller's, so every outbox run gets a
	// replica.
	borrowed bool
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
	c.Msgs, c.borrowed = msgs[:0], false
	carrierPool.Put(c)
}

// PublishBatchCarrier is PublishBatch for a pooled carrier: the batch in
// c.Msgs is delivered as one dispatch unit and the carrier travels with it
// to the dispatch worker, which recycles it after the last transmit. See
// the BatchCarrier ownership contract.
//
// A batch spanning several topics is split into runs like PublishBatch's,
// whose carriers borrow c's messages (no run hands one off), and c is
// recycled once they are accepted.
func (p Publisher) PublishBatchCarrier(ctx context.Context, c *BatchCarrier) error {
	return p.admit(ctx, c)
}
