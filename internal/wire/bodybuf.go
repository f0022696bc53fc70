package wire

import (
	"math/bits"
	"sync"
	"unsafe"

	"repro/internal/broker"
)

// bodyStore is the server's storage for one wire-published body over a
// quarter byte chunk (2 KiB): such a body does not share the slab's byte
// chunk, where it would evict the small messages sharing it, but takes
// pooled storage of its own, in power-of-two size classes A from 4 KiB to
// 64 KiB (see MessageArena.body). A larger body is an exact GC-owned
// allocation, as on a GC-owned arena.
//
// The storage is its array alone, one allocation exactly its size class: a
// count beside a [4096]byte array would take the 4 864-byte class. It
// needs none, since a body belongs to one message of one carrier: the
// carrier holds its one reference, and Unref is the release. The arena
// records each body it hands out as a claim (MessageArena.bodies),
// claimSlabs passes it to the carrier, and the carrier's last release drops
// it, as it drops a slab's.
// An escaped carrier leaves it to the GC.
type bodyStore[A any] struct{ b A }

// bodyPools holds released body storage, one pool per size class. Pools,
// not free lists: the GC empties them, so storage a burst of large bodies
// needed does not stay in the live heap after it.
var bodyPools [5]sync.Pool

// maxPooledBody is the largest size class.
const maxPooledBody = 64 << 10

// bodyPool returns the pool of the size class of n-byte storage; the
// 4 KiB class, 1<<12, is the first.
func bodyPool(n int) *sync.Pool { return &bodyPools[bits.Len(uint(n-1))-12] }

// body copies b, a body over a quarter chunk, into storage of its own: on
// a recycling arena, pooled storage claimed for the carrier being filled,
// when a size class holds it, capacity-limited like every carving; else a
// GC-owned allocation of its own.
func (a *MessageArena) body(b []byte) []byte {
	switch n := len(b); {
	case !a.pooledBody(n):
		return append([]byte(nil), b...)
	case n <= 4<<10:
		return claimBody[[4 << 10]byte](a, b)
	case n <= 8<<10:
		return claimBody[[8 << 10]byte](a, b)
	case n <= 16<<10:
		return claimBody[[16 << 10]byte](a, b)
	case n <= 32<<10:
		return claimBody[[32 << 10]byte](a, b)
	default:
		return claimBody[[64 << 10]byte](a, b)
	}
}

// claimBody copies b into storage of class A, pooled or new, and records
// the storage as a claim for the carrier being filled.
func claimBody[A any](a *MessageArena, b []byte) []byte {
	p, ok := bodyPool(int(unsafe.Sizeof(*new(A)))).Get().(*bodyStore[A])
	if !ok {
		p = new(bodyStore[A])
	}
	if a.bodies == nil {
		a.bodies = new([]broker.Slab)
	}
	*a.bodies = append(*a.bodies, p)
	c := p.bytes()[:len(b):len(b)]
	copy(c, b)
	return c
}

// bytes returns the whole storage.
func (p *bodyStore[A]) bytes() []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&p.b)), unsafe.Sizeof(p.b))
}

// Unref releases the storage to its pool. Under the jmsdebug build tag it
// is poisoned first, so whatever still reads a body carved from it sees
// corrupted content, as with a slab.
func (p *bodyStore[A]) Unref() {
	b := p.bytes()
	if poisonSlabs {
		for i := range b {
			b[i] = poisonByte
		}
	}
	bodyPool(len(b)).Put(p)
}
