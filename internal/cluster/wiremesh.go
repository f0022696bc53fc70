package cluster

// This file implements the network form of the replication mesh: WireMesh
// plugs into a jmsd wire server as its wire.Forwarder and replicates
// client publishes to peer jmsd processes over FORWARD frames. It is the
// over-TCP counterpart of the in-process Topology — same three kinds,
// same routing rules, but with static membership fixed at boot (dynamic
// join/leave with rebalancing is the in-process layer's job):
//
//   - PSR: publishers are partitioned across brokers by which address
//     they dial; no server-side forwarding at all. Subscribers attach to
//     every broker (client side).
//   - SSR: every publish is flooded to all peers before it is acked, so
//     each subscriber's single home broker sees the full stream.
//   - hash: each topic has one deterministic owner; the entry broker
//     forwards to the owner and only publishes locally when it owns the
//     topic itself.
//
// Forwarding is pipelined: Start queues one FORWARD frame per required
// peer on that peer's wire.PeerLink and returns at once with a
// wire.ForwardAck; the wire server parks the publish, keeps reading, and
// publishes locally and acks the client only when the last forward-ack is
// in. A PUB_ACK to the client therefore still means the message is
// accepted everywhere it must be, while the forwards of successive
// publishes share the link's vectored writes and the peers work in
// parallel with the origin. A peer failure rejects the publish instead —
// the client's retry path re-offers it, and the publisher-stamped dedupe
// identity makes the retry idempotent on peers that did accept the first
// attempt. That is what makes "zero acked messages lost" checkable across
// broker kill/restart.

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/jms"
	"repro/internal/wire"
)

// meshMemberID names mesh member i the way the in-process Topology does
// ("m0", "m1", ...), so the wire mesh, the in-process mesh and client-side
// routers all compute identical ring assignments.
func meshMemberID(i int) string { return fmt.Sprintf("m%d", i) }

// HashRouter computes the topic→member assignment of an n-member hash
// mesh deterministically, so load generators can route client-side and
// servers can route forwards without ever exchanging an assignment table.
// With a static topic set it uses the balanced Ring; topics outside the
// set (or a nil set) fall back to pure rendezvous hashing, which every
// member still computes identically.
type HashRouter struct {
	ids   []string       // member IDs by mesh index
	index map[string]int // member ID → mesh index
	ring  *Ring          // nil when no static topic set was given
}

// NewHashRouter builds a router for an n-member mesh. topics may be nil.
func NewHashRouter(n int, topics []string) (*HashRouter, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: mesh needs at least one member", ErrParams)
	}
	hr := &HashRouter{ids: make([]string, n), index: make(map[string]int, n)}
	for i := range hr.ids {
		hr.ids[i] = meshMemberID(i)
		hr.index[hr.ids[i]] = i
	}
	if len(topics) > 0 {
		ring, err := NewRing(hr.ids, topics)
		if err != nil {
			return nil, err
		}
		hr.ring = ring
	}
	return hr, nil
}

// Owner returns the mesh index owning topic.
func (hr *HashRouter) Owner(topic string) int {
	if hr.ring != nil {
		if owner, ok := hr.ring.Owner(topic); ok {
			return hr.index[owner]
		}
	}
	// Pure rendezvous fallback: argmax score, ties to the lower index.
	best, bestScore := 0, uint64(0)
	for i, id := range hr.ids {
		if s := ringScore(id, topic); i == 0 || s > bestScore {
			best, bestScore = i, s
		}
	}
	return best
}

// WireMeshConfig configures a WireMesh.
type WireMeshConfig struct {
	// Kind selects the replication topology.
	Kind TopologyKind
	// Self is this member's index into Addrs.
	Self int
	// Addrs lists every member's wire address, self included (the self
	// slot is never dialed).
	Addrs []string
	// Topics is the static topic set for hash routing; optional (unknown
	// topics route by pure rendezvous).
	Topics []string
	// DialTimeout bounds each peer dial. Default 3s.
	DialTimeout time.Duration
	// AckTimeout bounds the wait for a peer's FORWARD ack. Default 10s.
	AckTimeout time.Duration
}

// WireMeshStats is a snapshot of the mesh forwarder's counters.
type WireMeshStats struct {
	Kind TopologyKind
	Self int
	// Peers is the number of remote members.
	Peers int
	// ForwardedOut counts FORWARD frames acked by peers.
	ForwardedOut uint64
	// ForwardErrors counts forwards that failed (dial, write, peer error,
	// ack timeout) and therefore rejected the triggering publish.
	ForwardErrors uint64
	// Reconnects counts re-dials after an established peer connection broke.
	Reconnects uint64
	// ForwardInflight is the number of FORWARD frames sent and not yet
	// acked or failed, over all peers: the occupancy of the forward window.
	ForwardInflight int64
}

// WireMesh replicates publishes to peer jmsd servers. It implements
// wire.Forwarder; attach it via wire.ServeOptions.Forwarder.
type WireMesh struct {
	kind   TopologyKind
	self   int
	router *HashRouter

	links []*wire.PeerLink // indexed like Addrs; nil at self

	mu     sync.Mutex
	closed bool
}

// NewWireMesh builds the mesh forwarder. Connections to peers are dialed
// lazily on first use and re-dialed after failures.
func NewWireMesh(cfg WireMeshConfig) (*WireMesh, error) {
	switch cfg.Kind {
	case TopologyPSR, TopologySSR, TopologyHash:
	default:
		return nil, fmt.Errorf("%w: unknown topology kind %d", ErrParams, cfg.Kind)
	}
	if cfg.Self < 0 || cfg.Self >= len(cfg.Addrs) {
		return nil, fmt.Errorf("%w: self index %d outside %d addresses", ErrParams, cfg.Self, len(cfg.Addrs))
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 3 * time.Second
	}
	if cfg.AckTimeout <= 0 {
		cfg.AckTimeout = 10 * time.Second
	}
	router, err := NewHashRouter(len(cfg.Addrs), cfg.Topics)
	if err != nil {
		return nil, err
	}
	wm := &WireMesh{
		kind:   cfg.Kind,
		self:   cfg.Self,
		router: router,
		links:  make([]*wire.PeerLink, len(cfg.Addrs)),
	}
	for i, addr := range cfg.Addrs {
		if i == cfg.Self {
			continue
		}
		if addr == "" {
			return nil, fmt.Errorf("%w: empty address for member %d", ErrParams, i)
		}
		wm.links[i] = wire.NewPeerLink(addr, uint32(cfg.Self), cfg.DialTimeout, cfg.AckTimeout)
	}
	return wm, nil
}

// Stats returns a snapshot of the mesh counters, summed over the peer links.
func (wm *WireMesh) Stats() WireMeshStats {
	st := WireMeshStats{Kind: wm.kind, Self: wm.self, Peers: len(wm.links) - 1}
	for _, l := range wm.links {
		if l == nil {
			continue
		}
		ls := l.Stats()
		st.ForwardedOut += ls.Acked
		st.ForwardErrors += ls.Failed
		st.Reconnects += ls.Reconnects
		st.ForwardInflight += ls.Inflight
	}
	return st
}

// Kind returns the mesh's topology kind.
func (wm *WireMesh) Kind() TopologyKind { return wm.kind }

// Self returns this member's mesh index.
func (wm *WireMesh) Self() int { return wm.self }

// Close tears down all peer connections. Outstanding forwards fail at
// once, which rejects the publishes waiting on them.
func (wm *WireMesh) Close() error {
	wm.mu.Lock()
	if wm.closed {
		wm.mu.Unlock()
		return ErrClosed
	}
	wm.closed = true
	wm.mu.Unlock()
	for _, l := range wm.links {
		if l != nil {
			l.Close()
		}
	}
	return nil
}

// Start implements wire.Forwarder.
func (wm *WireMesh) Start(msgs []*jms.Message, batch bool, raw []byte) (bool, *wire.ForwardAck) {
	switch wm.kind {
	case TopologyPSR:
		// Publisher-side replication partitions publishers by the address
		// they dialed; nothing to forward.
		return true, nil
	case TopologySSR:
		return true, wm.flood(batch, raw)
	default: // TopologyHash
		// Group the publish by owner. The common case — a single message,
		// or a router-aware client's homogeneous batch — has one owner and
		// forwards the raw bytes verbatim when that is a peer; mixed
		// batches re-encode one sub-batch per remote owner. Self-owned
		// messages stay in the local publish; when a mixed batch also
		// carries remote-owned ones, the whole batch is published locally —
		// the remote-owned extras match no local subscriber (subscribers
		// only attach to a topic's owner), so this trades a little wasted
		// matching for not re-slicing the carrier.
		owner, mixed := wm.self, false
		for i, m := range msgs {
			if o := wm.router.Owner(m.Header.Topic); i == 0 {
				owner = o
			} else if o != owner {
				mixed = true
				break
			}
		}
		if !mixed {
			if owner == wm.self {
				return true, nil
			}
			ack := wire.NewForwardAck(1)
			wm.links[owner].Forward(ack, batch, raw)
			return false, ack
		}
		groups := make(map[int][]*jms.Message)
		anySelf := false
		for _, m := range msgs {
			if o := wm.router.Owner(m.Header.Topic); o == wm.self {
				anySelf = true
			} else {
				groups[o] = append(groups[o], m)
			}
		}
		ack := wire.NewForwardAck(len(groups))
		for owner, group := range groups {
			wm.links[owner].Forward(ack, true, wire.EncodeBatch(group))
		}
		return anySelf, ack
	}
}

// flood queues the payload for every peer. If any of them fails, the
// publish is rejected as a whole and the client's retry is deduped by the
// peers that did accept it.
func (wm *WireMesh) flood(batch bool, inner []byte) *wire.ForwardAck {
	ack := wire.NewForwardAck(len(wm.links) - 1)
	for _, l := range wm.links {
		if l != nil {
			l.Forward(ack, batch, inner)
		}
	}
	return ack
}

// ForwardPublish forwards one publish and waits for the outcome: Start plus
// the wait the wire server does in its commit loop. It reports whether the
// message is also to be published locally.
func (wm *WireMesh) ForwardPublish(m *jms.Message, raw []byte) (bool, error) {
	return wm.forward([]*jms.Message{m}, false, raw)
}

// ForwardBatch is ForwardPublish for a batch.
func (wm *WireMesh) ForwardBatch(msgs []*jms.Message, raw []byte) (bool, error) {
	return wm.forward(msgs, true, raw)
}

func (wm *WireMesh) forward(msgs []*jms.Message, batch bool, raw []byte) (bool, error) {
	local, ack := wm.Start(msgs, batch, raw)
	if err := ack.Wait(); err != nil {
		return false, err
	}
	return local, nil
}
