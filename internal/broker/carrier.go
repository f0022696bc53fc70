package broker

import (
	"context"
	"sync"
	"sync/atomic"

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
//   - On a nil error the broker owns the carrier and recycles it to the
//     pool once its last holder lets go. The caller must not touch the
//     carrier (or c.Msgs) again.
//   - On a non-nil error ownership stays with the caller, who may Release
//     it (after unrecording dedupe claims etc.) or retry.
//
// The messages' storage: a carrier filled by the wire server records, with
// Retain, the reference-counted slabs its messages were carved from (the
// wire arena's). Such a carrier is held by the dispatch worker while it
// serves the carrier and by every delivery of its messages queued in a
// shared Outbox (NewOutbox) — the original, a Shared view or a Clone alike,
// since each aliases the slab's bytes. The consumer of that outbox releases
// a delivery's Hold once it has read the message for the last time; the
// last release drops the carrier's slab references, so a slab whose every
// carrier is done is reused instead of left to the GC. A message kept past
// its delivery makes the carrier escape: a delivery put into an outbox of
// its own (in-process Receive or Chan, a durable subscription's relay). A
// durable consumer's deliveries, an acked subscription's among them, are
// refilled from its backlog and hold nothing. An escaped carrier
// never drops its slab references, so that storage stays GC-owned; the
// carrier struct itself still recycles. The rule is one-sided: a release
// before the last read would let a reader see another message's bytes, a
// release that never comes (a connection torn down with deliveries still
// queued) only leaves carrier and slabs to the GC. Recycling zeroes every
// retained pointer so a pooled carrier never pins the previous batch's
// messages or slabs.
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
	// slabs holds one reference on each slab Msgs were carved from.
	slabs []Slab
	// holds counts the worker's hold and those of queued deliveries while
	// the carrier has slabs; escaped marks slabs that must never be
	// dropped (see the contract above).
	holds   atomic.Int32
	escaped atomic.Bool
}

// Slab is reference-counted message storage: the wire arena's unit of
// recycling. Unref drops one reference; the last one makes the storage
// reusable.
type Slab interface{ Unref() }

// maxCarrierMsgs bounds what the carrier pool retains, mirroring the
// maxPooledBuffer policy of the wire buffer pool: recycling the occasional
// huge batch's carrier would pin its message slice.
const maxCarrierMsgs = 4096

var carrierPool = sync.Pool{New: func() any { return new(BatchCarrier) }}

// GetBatchCarrier returns a pooled, empty carrier.
func GetBatchCarrier() *BatchCarrier { return carrierPool.Get().(*BatchCarrier) }

// Retain records that c's messages were carved from s, handing c one
// reference on it, which c drops once its last holder lets go.
func (c *BatchCarrier) Retain(s Slab) { c.slabs = append(c.slabs, s) }

// Release returns a caller-owned carrier to the pool, dropping its slab
// references. Only call it when PublishBatchCarrier returned an error (or
// the carrier was never handed off); after a successful publish the broker
// recycles it.
func (c *BatchCarrier) Release() { c.free() }

// hold takes the worker's hold on a carrier with slabs and returns it, or
// nil when the carrier has nothing to release.
func (c *BatchCarrier) hold() *BatchCarrier {
	if len(c.slabs) == 0 {
		return nil
	}
	c.holds.Store(1)
	return c
}

// unhold drops n holds; the last one frees the carrier.
func (c *BatchCarrier) unhold(n int32) {
	if c.holds.Add(-n) == 0 {
		c.free()
	}
}

// free drops c's slab references unless it escaped, and recycles it.
func (c *BatchCarrier) free() {
	if !c.escaped.Load() {
		for _, s := range c.slabs {
			s.Unref()
		}
	}
	c.recycle()
}

// recycle zeroes every pointer the carrier retains and returns it to the
// pool, forgetting its slab references without dropping them.
func (c *BatchCarrier) recycle() {
	if cap(c.Msgs) > maxCarrierMsgs {
		return
	}
	msgs := c.Msgs[:cap(c.Msgs)]
	for i := range msgs {
		msgs[i] = nil
	}
	clear(c.slabs)
	c.Msgs, c.borrowed, c.slabs = msgs[:0], false, c.slabs[:0]
	c.escaped.Store(false)
	carrierPool.Put(c)
}

// Hold is a consumer's claim on the storage of a message it took off a
// shared Outbox: Delivery.Hold returns one per delivery and Join merges
// those of one message. Release it once the message has been read for the
// last time. The zero Hold — a message whose storage is not recycled —
// does nothing.
type Hold struct {
	c *BatchCarrier
	n int32
}

// Hold returns d's hold on its message's storage.
func (d Delivery) Hold() Hold {
	if d.hold == nil {
		return Hold{}
	}
	return Hold{d.hold, 1}
}

// Join adds o, a hold on the same message, to h.
func (h *Hold) Join(o Hold) {
	if h.c == nil {
		*h = o
		return
	}
	h.n += o.n
}

// Release drops the hold. Nothing may read the message through it after.
func (h Hold) Release() {
	if h.c != nil {
		h.c.unhold(h.n)
	}
}

// PublishBatchCarrier is PublishBatch for a pooled carrier: the batch in
// c.Msgs is delivered as one dispatch unit and the carrier travels with it
// to the dispatch worker. See the BatchCarrier ownership contract.
//
// A batch spanning several topics is split into runs like PublishBatch's,
// whose carriers borrow c's messages (no run hands one off); c escapes,
// since no run holds it, and is recycled once they are accepted.
func (p Publisher) PublishBatchCarrier(ctx context.Context, c *BatchCarrier) error {
	return p.admit(ctx, c)
}
