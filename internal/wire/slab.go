package wire

import (
	"sync"
	"sync/atomic"

	"repro/internal/broker"
	"repro/internal/jms"
)

// slab is a recycling arena's storage: one chunk of each kind in one
// allocation, and its reference count (see MessageArena). It implements
// broker.Slab. It holds two chunks' worth of structs: the arena starts a new
// slab when any part runs out, and a small message uses up its struct far
// sooner than its share of the bytes (a 16-byte body with a short
// correlation ID fills 8 KiB after about 300 messages), so the wider part
// leaves less of the slab unused. That matters only for an escaped slab,
// whose whole size the GC reclaims; 20 224 bytes take the 20 KiB size class.
type slab struct {
	refs  atomic.Int32
	msgs  [2 * msgChunk]jms.Message
	props [propChunk]jms.PropertyEntry
	bytes [byteChunk]byte
}

// slabPool holds released slabs. A pool, not a free list: the GC empties it,
// so slabs a burst needed do not stay in the live heap after it.
var slabPool = sync.Pool{New: func() any { return new(slab) }}

// arenaRefs is a slab's count while it is an arena's current slab: the
// arena's reference plus room for every claim it hands out. The arena
// counts its claims itself (MessageArena.taken) and settles them when it
// lets the slab go, so the read loop touches the shared count once per
// slab, not once per publish, and the count cannot reach zero before that.
const arenaRefs = 1 << 30

// getSlab returns an empty slab counted for an arena.
func getSlab() *slab {
	s := slabPool.Get().(*slab)
	if poisonSlabs {
		clear(s.msgs[:])
	}
	s.refs.Store(arenaRefs)
	return s
}

// Unref drops one reference.
func (s *slab) Unref() { s.unref(1) }

// unref drops n references. The last one scrubs the slab — its structs and
// property entries point at nothing any more — and pools it; under the
// jmsdebug build tag it is poisoned instead, so whatever still reads a
// message carved from it sees corrupted content.
func (s *slab) unref(n int32) {
	if s.refs.Add(-n) != 0 {
		return
	}
	clear(s.props[:])
	if poisonSlabs {
		for i := range s.msgs {
			s.msgs[i] = poisonMessage
		}
		for i := range s.bytes {
			s.bytes[i] = poisonByte
		}
	} else {
		clear(s.msgs[:])
	}
	slabPool.Put(s)
}

// poisonByte fills a released slab's bytes under jmsdebug; poisonMessage
// each of its structs.
const poisonByte = 0xa5

var poisonMessage = jms.Message{
	Header: jms.Header{MessageID: 0xa5a5a5a5a5a5a5a5, Topic: "\xa5released", CorrelationID: "\xa5released"},
	Body:   []byte("\xa5released"),
}

// newSlabArena returns an empty recycling arena: the server's, whose
// messages live in pooled slabs that each publish carrier references.
func newSlabArena() *MessageArena {
	a := NewMessageArena()
	a.slabs = true
	return a
}

// rotate replaces the current slab with a pooled one, letting the old go.
func (a *MessageArena) rotate() {
	a.drop()
	s := getSlab()
	a.cur = s
	a.msgs, a.props, a.bytes = s.msgs[:], s.props[:], s.bytes[:]
}

// claim takes a reference on the current slab for the carrier being
// filled, unless it holds one already.
func (a *MessageArena) claim() {
	if n := len(a.claims); n > 0 && a.claims[n-1] == a.cur {
		return
	}
	a.taken++
	a.claims = append(a.claims, a.cur)
}

// claimSlabs hands c the slabs and body storage carved from since the last
// call, each with the reference taken for it. The server calls it once per
// publish, after decoding into c and before c can be released or published.
func (a *MessageArena) claimSlabs(c *broker.BatchCarrier) {
	for _, s := range a.claims {
		c.Retain(s)
	}
	clear(a.claims)
	a.claims = a.claims[:0]
	if a.bodies != nil {
		for _, s := range *a.bodies {
			c.Retain(s)
		}
		clear(*a.bodies)
		*a.bodies = (*a.bodies)[:0]
	}
	if poisonSlabs {
		// Each publish gets slabs of its own, so a slab is poisoned as soon
		// as its one carrier lets go, not only once the arena moves on.
		a.drop()
	}
}

// drop lets the current slab go: its count becomes the claims still held
// on it. The next carving starts a new slab. The server drops a
// connection's slab at teardown.
func (a *MessageArena) drop() {
	if a.cur != nil {
		a.cur.unref(arenaRefs - a.taken)
		a.cur, a.taken, a.msgs, a.props, a.bytes = nil, 0, nil, nil, nil
	}
}
