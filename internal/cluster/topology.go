// Package cluster implements broker clustering, the paper's stated ongoing
// work ("we investigate the message throughput performance of server
// clusters and work on concepts to achieve true JMS system scalability"):
// one deterministic topic Ring (ring.go) and two replication meshes over it
// — the in-process Topology below, with live membership changes, and the
// static TCP WireMesh (wiremesh.go) that jmsd runs in production. Both
// share TopologyKind, the member-id spelling and the package errors.
//
// Topology implements the replication topologies of the paper's Section on
// distributed architectures (Eqs. 21–23) as a live multi-broker layer:
//
//   - PSR (publisher-side server replication): each publisher enters at
//     its own broker and every subscriber's filter is mirrored on all n
//     brokers, so a message is matched exactly once — at its ingress
//     broker — and each broker carries the full m·n_fltr filter load
//     (Eq. 21: system capacity n times a slowed-down server).
//   - SSR (subscriber-side server replication): each subscriber homes on
//     one broker and every publish is flooded to all brokers, each of
//     which matches only its local subscribers' filters (Eq. 22: the
//     per-server capacity is independent of n and m).
//   - Hash: the topology the paper didn't have — topics are partitioned
//     across brokers by the deterministic Ring, each message is received
//     and matched exactly once at the topic's owner, and membership
//     changes rebalance only the minimal topic set.
//
// The layer is deliberately in-process (brokers, not sockets): it is the
// core artifact the conformance, metamorphic and chaos walls pin down.
// WireMesh carries the same routing rules between real jmsd processes.
//
// Rebalancing is lossless for accepted messages: publishes take the
// topology's read lock, a membership change takes the write lock (so no
// publish is in flight mid-move), quiesces the affected topics on the old
// owner (every accepted message committed — the broker's per-topic
// telemetry counters make that observable), re-subscribes on the new
// owner, and only then drains the old subscription's residue into the
// subscriber's merged channel. The drain protocol leans on two documented
// broker guarantees: no new delivery is enqueued once Unsubscribe has
// returned, and Close dispatches accepted messages before it ends the
// subscriptions; either way Receive returns what is queued before it
// reports the end.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/filter"
	"repro/internal/jms"
)

// Errors of the cluster package.
var (
	// ErrParams is returned for invalid topology parameters.
	ErrParams = errors.New("cluster: invalid parameters")
	// ErrClosed is returned after Close.
	ErrClosed = errors.New("cluster: closed")
)

// TopologyKind selects a replication architecture.
type TopologyKind int

// The three replication topologies.
const (
	// TopologyPSR is publisher-side server replication (Eq. 21).
	TopologyPSR TopologyKind = iota + 1
	// TopologySSR is subscriber-side server replication (Eq. 22).
	TopologySSR
	// TopologyHash is consistent-hash topic partitioning.
	TopologyHash
)

// String returns the flag spelling of the kind.
func (k TopologyKind) String() string {
	switch k {
	case TopologyPSR:
		return "psr"
	case TopologySSR:
		return "ssr"
	case TopologyHash:
		return "hash"
	default:
		return fmt.Sprintf("TopologyKind(%d)", int(k))
	}
}

// ParseTopology parses the -mesh flag spelling.
func ParseTopology(s string) (TopologyKind, error) {
	switch s {
	case "psr":
		return TopologyPSR, nil
	case "ssr":
		return TopologySSR, nil
	case "hash":
		return TopologyHash, nil
	default:
		return 0, fmt.Errorf("%w: topology %q (want psr, ssr or hash)", ErrParams, s)
	}
}

// TopologyConfig parameterizes NewTopology.
type TopologyConfig struct {
	// Kind selects the replication architecture.
	Kind TopologyKind
	// Members is the number of brokers (the paper's n for PSR, m for SSR).
	Members int
	// Topics are configured on every member.
	Topics []string
	// Broker configures each member. WaitTiming is forced on: the
	// rebalancer's quiesce barrier reads the per-topic telemetry counters.
	Broker broker.Options
	// OutBuffer is each TopoSub's merged-channel capacity. Default 1024.
	OutBuffer int
	// QuiesceTimeout bounds the per-topic drain wait during a rebalance.
	// Default 30s.
	QuiesceTimeout time.Duration
}

// topoMember is one broker slot with its stable id.
type topoMember struct {
	id string
	b  *broker.Broker
}

// Topology is a live replication mesh over in-process brokers.
type Topology struct {
	kind      TopologyKind
	topics    []string
	opts      broker.Options
	outBuffer int
	quiesceTO time.Duration

	mu      sync.RWMutex
	members []*topoMember
	ring    *Ring // TopologyHash only
	subs    map[*TopoSub]struct{}
	nextID  int
	closed  bool

	forwards      atomic.Uint64 // SSR flood copies + hash cross-member routes
	forwardErrors atomic.Uint64
	rebalances    atomic.Uint64
	topicsMoved   atomic.Uint64
}

// TopologyStats is a counter snapshot of the mesh.
type TopologyStats struct {
	Kind    TopologyKind
	Members int
	// Forwards counts messages that crossed a member boundary: SSR flood
	// copies and hash publishes whose origin was not the topic's owner.
	Forwards uint64
	// ForwardErrors counts cross-member publishes refused by a closing
	// member.
	ForwardErrors uint64
	// Rebalances counts membership events that moved subscriptions.
	Rebalances uint64
	// TopicsMoved counts topic moves across all rebalances.
	TopicsMoved uint64
	// MemberIDs and MemberReceived list, per live member, its id and its
	// broker's accepted-message counter — the per-broker λ numerator.
	MemberIDs      []string
	MemberReceived []uint64
}

// NewTopology builds a mesh of cfg.Members brokers wired as cfg.Kind.
func NewTopology(cfg TopologyConfig) (*Topology, error) {
	switch cfg.Kind {
	case TopologyPSR, TopologySSR, TopologyHash:
	default:
		return nil, fmt.Errorf("%w: kind %v", ErrParams, cfg.Kind)
	}
	if cfg.Members < 1 || len(cfg.Topics) == 0 {
		return nil, fmt.Errorf("%w: members=%d topics=%d", ErrParams, cfg.Members, len(cfg.Topics))
	}
	if cfg.OutBuffer <= 0 {
		cfg.OutBuffer = 1024
	}
	if cfg.QuiesceTimeout <= 0 {
		cfg.QuiesceTimeout = 30 * time.Second
	}
	cfg.Broker.WaitTiming = true
	t := &Topology{
		kind:      cfg.Kind,
		topics:    append([]string(nil), cfg.Topics...),
		opts:      cfg.Broker,
		outBuffer: cfg.OutBuffer,
		quiesceTO: cfg.QuiesceTimeout,
		subs:      make(map[*TopoSub]struct{}),
	}
	for i := 0; i < cfg.Members; i++ {
		m, err := t.newMember()
		if err != nil {
			_ = t.Close()
			return nil, err
		}
		t.members = append(t.members, m)
	}
	if cfg.Kind == TopologyHash {
		ids := make([]string, len(t.members))
		for i, m := range t.members {
			ids[i] = m.id
		}
		r, err := NewRing(ids, t.topics)
		if err != nil {
			_ = t.Close()
			return nil, err
		}
		t.ring = r
	}
	return t, nil
}

// newMember creates and configures one broker slot.
func (t *Topology) newMember() (*topoMember, error) {
	m := &topoMember{id: meshMemberID(t.nextID), b: broker.New(t.opts)}
	t.nextID++
	for _, tp := range t.topics {
		if err := m.b.ConfigureTopic(tp); err != nil {
			_ = m.b.Close()
			return nil, err
		}
	}
	return m, nil
}

// Kind returns the topology kind.
func (t *Topology) Kind() TopologyKind { return t.kind }

// MemberIDs returns the live member ids in slot order.
func (t *Topology) MemberIDs() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	ids := make([]string, len(t.members))
	for i, m := range t.members {
		ids[i] = m.id
	}
	return ids
}

// Brokers returns the live member brokers in slot order, for telemetry
// inspection by the conformance harness.
func (t *Topology) Brokers() []*broker.Broker {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*broker.Broker, len(t.members))
	for i, m := range t.members {
		out[i] = m.b
	}
	return out
}

// Owner returns the member id owning a topic (hash topology only).
func (t *Topology) Owner(topic string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.ring == nil {
		return "", false
	}
	return t.ring.Owner(topic)
}

func (t *Topology) memberByID(id string) (int, *topoMember) {
	for i, m := range t.members {
		if m.id == id {
			return i, m
		}
	}
	return -1, nil
}

// Publish routes one message through the topology. origin identifies the
// publisher; it is mapped onto a member slot (origin mod members) for the
// architectures that partition publishers. An error means the message was
// not (or not everywhere) accepted; retrying a failed SSR flood may
// duplicate copies at members that had already accepted theirs.
func (t *Topology) Publish(ctx context.Context, origin int, m *jms.Message) error {
	if origin < 0 {
		return fmt.Errorf("%w: origin %d", ErrParams, origin)
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.closed {
		return ErrClosed
	}
	n := len(t.members)
	entry := t.members[origin%n]
	switch t.kind {
	case TopologyPSR:
		// Matched once at the ingress broker; subscribers reached through
		// their mirrored filters.
		return entry.b.Publish(ctx, m)
	case TopologySSR:
		// Flood: every member sees the full stream and matches only its
		// local subscribers. The entry member publishes the original, the
		// rest get clones.
		var firstErr error
		for i, mem := range t.members {
			msg := m
			if i != origin%n {
				msg = m.Clone()
			}
			if err := mem.b.Publish(ctx, msg); err != nil {
				t.forwardErrors.Add(1)
				if firstErr == nil {
					firstErr = fmt.Errorf("member %s: %w", mem.id, err)
				}
				continue
			}
			if i != origin%n {
				t.forwards.Add(1)
			}
		}
		return firstErr
	case TopologyHash:
		ownerID, ok := t.ring.Owner(m.Header.Topic)
		if !ok {
			return fmt.Errorf("%w: topic %q not in ring", ErrParams, m.Header.Topic)
		}
		_, owner := t.memberByID(ownerID)
		if owner == nil {
			return fmt.Errorf("%w: owner %q gone", ErrParams, ownerID)
		}
		if owner != entry {
			t.forwards.Add(1)
		}
		if err := owner.b.Publish(ctx, m); err != nil {
			if errors.Is(err, broker.ErrClosed) {
				t.forwardErrors.Add(1)
			}
			return err
		}
		return nil
	default:
		return fmt.Errorf("%w: kind %v", ErrParams, t.kind)
	}
}

// Subscribe installs a subscriber according to the topology: mirrored on
// every member for PSR, homed on one member (home mod members) for SSR,
// and on the topic's ring owner for hash. The returned TopoSub merges all
// underlying subscriptions into one channel; the caller must drain it.
func (t *Topology) Subscribe(topicName string, f filter.Filter, home int) (*TopoSub, error) {
	if home < 0 {
		return nil, fmt.Errorf("%w: home %d", ErrParams, home)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, ErrClosed
	}
	s := &TopoSub{
		t:     t,
		topic: topicName,
		fltr:  f,
		home:  home,
		out:   make(chan *jms.Message, t.outBuffer),
		dead:  make(chan struct{}),
		parts: make(map[string]*topoPart),
	}
	var targets []*topoMember
	switch t.kind {
	case TopologyPSR:
		targets = t.members
	case TopologySSR:
		targets = []*topoMember{t.members[home%len(t.members)]}
	case TopologyHash:
		ownerID, ok := t.ring.Owner(topicName)
		if !ok {
			return nil, fmt.Errorf("%w: topic %q not in ring", ErrParams, topicName)
		}
		_, owner := t.memberByID(ownerID)
		targets = []*topoMember{owner}
	}
	for _, mem := range targets {
		if err := s.attachLocked(mem); err != nil {
			s.teardownLocked()
			return nil, err
		}
	}
	t.subs[s] = struct{}{}
	return s, nil
}

// quiesceMember blocks until every message accepted by the member for the
// given topics has been committed (its deliveries enqueued), observable as
// the per-topic sojourn count catching up with the accepted count.
// Expiring messages would break the equality; topology traffic sets no
// expiration.
func (t *Topology) quiesceMember(m *topoMember, topics []string) error {
	deadline := time.Now().Add(t.quiesceTO)
	for {
		tel := m.b.Telemetry()
		settled := true
		for _, tp := range topics {
			if tt, ok := tel[tp]; ok && tt.Sojourn.Count < tt.Received {
				settled = false
				break
			}
		}
		if settled {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: quiesce of member %s timed out", m.id)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// AddMember grows the mesh by one broker and rebalances: hash steals the
// ring's minimal topic set from the existing members (quiescing and
// re-homing their subscriptions losslessly), PSR mirrors every
// subscription onto the newcomer, SSR only adds flood capacity.
func (t *Topology) AddMember() (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", ErrClosed
	}
	mem, err := t.newMember()
	if err != nil {
		return "", err
	}
	t.members = append(t.members, mem)
	switch t.kind {
	case TopologyPSR:
		for s := range t.subs {
			if err := s.attachLocked(mem); err != nil {
				return mem.id, err
			}
		}
	case TopologyHash:
		moved, err := t.ring.Join(mem.id)
		if err != nil {
			return mem.id, err
		}
		if err := t.migrateLocked(moved, mem.id); err != nil {
			return mem.id, err
		}
	}
	return mem.id, nil
}

// migrateLocked re-homes the subscriptions of moved topics (topic → old
// owner id for joins, topic → new owner id for leaves; dst resolves the
// destination per topic). Callers hold the write lock, so no publish is in
// flight; each source member is quiesced (if still alive) before its
// subscriptions are torn down, which makes the move lossless.
func (t *Topology) migrateLocked(moved map[string]string, joiner string) error {
	if len(moved) == 0 {
		return nil
	}
	t.rebalances.Add(1)
	t.topicsMoved.Add(uint64(len(moved)))
	for topic, other := range moved {
		srcID, dstID := other, joiner
		if joiner == "" {
			// Leave: the map holds the heir, the source is the leaver
			// whose parts are found on the subscription itself.
			dstID = other
			srcID = ""
		}
		_, dst := t.memberByID(dstID)
		if dst == nil {
			return fmt.Errorf("%w: destination %q gone", ErrParams, dstID)
		}
		for s := range t.subs {
			if s.topic != topic {
				continue
			}
			from := srcID
			if from == "" {
				from = s.soleMemberID()
			}
			if from != "" {
				if _, src := t.memberByID(from); src != nil {
					if err := t.quiesceMember(src, []string{topic}); err != nil {
						return err
					}
				}
			}
			if err := s.moveLocked(from, dst); err != nil {
				return err
			}
		}
	}
	return nil
}

// RemoveMember gracefully drains a member and removes it: hash leaves the
// ring (moving only the leaver's topics), SSR re-homes the member's
// subscribers, PSR drops the member's mirrors. The member's broker is
// closed after its subscriptions have moved, so nothing accepted is lost.
func (t *Topology) RemoveMember(id string) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	if len(t.members) == 1 {
		t.mu.Unlock()
		return fmt.Errorf("%w: cannot remove the last member", ErrParams)
	}
	idx, mem := t.memberByID(id)
	if mem == nil {
		t.mu.Unlock()
		return fmt.Errorf("%w: member %q", ErrParams, id)
	}
	if err := t.quiesceMember(mem, t.topics); err != nil {
		t.mu.Unlock()
		return err
	}
	firstErr := t.removeLocked(idx, id)
	t.mu.Unlock()
	if err := mem.b.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Kill abruptly closes a member's broker, then removes it and rebalances.
// The broker's Close drains accepted messages into the subscription
// channels before closing them, and the merged-channel pumps flush that
// residue, so messages acked before the kill still reach their
// subscribers. Publishes racing the kill fail and may be retried by the
// caller; they land on the rebalanced mesh.
func (t *Topology) Kill(id string) error {
	t.mu.RLock()
	_, mem := t.memberByID(id)
	single := len(t.members) == 1
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if mem == nil {
		return fmt.Errorf("%w: member %q", ErrParams, id)
	}
	if single {
		return fmt.Errorf("%w: cannot kill the last member", ErrParams)
	}
	// Close outside the lock: Close blocks until accepted messages are
	// drained, and concurrent publishes (holding the read lock) must be
	// able to fail out of the dying broker meanwhile.
	_ = mem.b.Close()

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return ErrClosed
	}
	idx, cur := t.memberByID(id)
	if cur == nil {
		return fmt.Errorf("%w: member %q", ErrParams, id)
	}
	return t.removeLocked(idx, id)
}

// removeLocked splices member idx (id) out of the mesh and rebalances what
// it carried: PSR drops its mirrors, SSR re-homes its subscribers on the
// first remaining member, hash leaves the ring and migrates only the
// leaver's topics. A refused re-attach does not strand the remaining
// subscriptions; the first error is returned. Write lock held.
func (t *Topology) removeLocked(idx int, id string) error {
	t.members = append(t.members[:idx], t.members[idx+1:]...)
	switch t.kind {
	case TopologyPSR:
		for s := range t.subs {
			s.dropLocked(id)
		}
	case TopologySSR:
		heir := t.members[0]
		t.rebalances.Add(1)
		var firstErr error
		for s := range t.subs {
			if _, ok := s.parts[id]; !ok {
				continue
			}
			if err := s.moveLocked(id, heir); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	case TopologyHash:
		moved, err := t.ring.Leave(id)
		if err != nil {
			return err
		}
		return t.migrateLocked(moved, "")
	}
	return nil
}

// Restart replaces a member's broker in place (same id, fresh instance),
// re-installing the subscriptions the slot carries. Equivalent to a crash
// followed by an immediate rejoin under the same identity; the ring does
// not move for hash.
func (t *Topology) Restart(id string) error {
	t.mu.RLock()
	_, mem := t.memberByID(id)
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if mem == nil {
		return fmt.Errorf("%w: member %q", ErrParams, id)
	}
	_ = mem.b.Close() // drains; pumps flush residue

	next := broker.New(t.opts)
	for _, tp := range t.topics {
		if err := next.ConfigureTopic(tp); err != nil {
			_ = next.Close()
			return err
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		_ = next.Close()
		return ErrClosed
	}
	_, cur := t.memberByID(id)
	if cur == nil {
		_ = next.Close()
		return fmt.Errorf("%w: member %q", ErrParams, id)
	}
	cur.b = next
	for s := range t.subs {
		if _, ok := s.parts[id]; !ok {
			continue
		}
		if err := s.moveLocked(id, cur); err != nil {
			return err
		}
	}
	return nil
}

// Stats snapshots the topology counters.
func (t *Topology) Stats() TopologyStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	st := TopologyStats{
		Kind:          t.kind,
		Members:       len(t.members),
		Forwards:      t.forwards.Load(),
		ForwardErrors: t.forwardErrors.Load(),
		Rebalances:    t.rebalances.Load(),
		TopicsMoved:   t.topicsMoved.Load(),
	}
	for _, m := range t.members {
		st.MemberIDs = append(st.MemberIDs, m.id)
		st.MemberReceived = append(st.MemberReceived, m.b.Stats().Received)
	}
	return st
}

// Close tears down all subscriptions, then all members.
func (t *Topology) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return ErrClosed
	}
	t.closed = true
	subs := make([]*TopoSub, 0, len(t.subs))
	for s := range t.subs {
		subs = append(subs, s)
	}
	members := t.members
	t.mu.Unlock()

	for _, s := range subs {
		s.close()
	}
	var firstErr error
	for _, m := range members {
		if err := m.b.Close(); err != nil && !errors.Is(err, broker.ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- TopoSub ---------------------------------------------------------------

// topoPart is one underlying broker subscription with its pump goroutine.
type topoPart struct {
	sub  *broker.Subscriber
	done chan struct{}
}

// TopoSub is a topology-wide subscription: one merged delivery channel
// fed by a pump per underlying broker subscription (n pumps for PSR, one
// for SSR and hash). Rebalances re-home the underlying subscriptions
// without losing accepted messages; a failover may interleave residue
// from the old owner with fresh deliveries, so cross-event ordering is
// not guaranteed — the multiset is.
type TopoSub struct {
	t     *Topology
	topic string
	fltr  filter.Filter
	home  int

	out  chan *jms.Message
	dead chan struct{}

	mu        sync.Mutex
	parts     map[string]*topoPart // member id -> part
	closed    bool
	delivered atomic.Uint64
}

// Chan returns the merged delivery channel. It is closed by Unsubscribe
// (and by Topology.Close) after the pumps exit.
func (s *TopoSub) Chan() <-chan *jms.Message { return s.out }

// Delivered returns the number of messages forwarded into the merged
// channel.
func (s *TopoSub) Delivered() uint64 { return s.delivered.Load() }

// Topic returns the subscribed topic.
func (s *TopoSub) Topic() string { return s.topic }

// attachLocked subscribes on a member and starts its pump. Topology write
// lock held.
func (s *TopoSub) attachLocked(mem *topoMember) error {
	sub, err := mem.b.Subscribe(s.topic, s.fltr)
	if err != nil {
		return err
	}
	p := &topoPart{sub: sub, done: make(chan struct{})}
	s.mu.Lock()
	s.parts[mem.id] = p
	s.mu.Unlock()
	go s.pump(p)
	return nil
}

// soleMemberID returns the single member this subscription lives on (SSR
// and hash have exactly one part), or "" when ambiguous.
func (s *TopoSub) soleMemberID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.parts) != 1 {
		return ""
	}
	for id := range s.parts {
		return id
	}
	return ""
}

// dropLocked tears down the part on a member after flushing its residue.
func (s *TopoSub) dropLocked(id string) {
	s.mu.Lock()
	p := s.parts[id]
	delete(s.parts, id)
	s.mu.Unlock()
	if p == nil {
		return
	}
	_ = p.sub.Unsubscribe()
	<-p.done
}

// moveLocked re-homes this subscription from member id `from` to member
// `to`: the old part is unsubscribed and its residue flushed into the
// merged channel before the new part's pump starts, preserving per-topic
// order across a quiesced (graceful) move.
func (s *TopoSub) moveLocked(from string, to *topoMember) error {
	s.dropLocked(from)
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil
	}
	return s.attachLocked(to)
}

// pump forwards one underlying subscription into the merged channel. Its
// Receive returns everything the broker queued before the subscription
// ended — after a quiesce + unsubscribe that is everything the old owner
// accepted, after a kill what the closed broker had dispatched — so the
// pump exits only once all of it is forwarded.
func (s *TopoSub) pump(p *topoPart) {
	defer close(p.done)
	for {
		m, err := p.sub.Receive(context.Background())
		if err != nil || !s.deliver(m) {
			return
		}
	}
}

// deliver forwards one message into the merged channel, giving up only
// when the subscription is torn down.
func (s *TopoSub) deliver(m *jms.Message) bool {
	select {
	case s.out <- m:
		s.delivered.Add(1)
		return true
	case <-s.dead:
		return false
	}
}

// teardownLocked aborts a half-built subscription. Topology write lock
// held; the sub was never published to t.subs.
func (s *TopoSub) teardownLocked() {
	s.close()
}

// close tears the subscription down: underlying subscriptions are
// removed, pumps unblocked and awaited, and the merged channel closed.
func (s *TopoSub) close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	parts := make([]*topoPart, 0, len(s.parts))
	for _, p := range s.parts {
		parts = append(parts, p)
	}
	s.parts = make(map[string]*topoPart)
	s.mu.Unlock()

	close(s.dead)
	for _, p := range parts {
		_ = p.sub.Unsubscribe()
	}
	for _, p := range parts {
		<-p.done
	}
	close(s.out)
}

// Unsubscribe removes the subscription from the topology and closes the
// merged channel.
func (s *TopoSub) Unsubscribe() error {
	s.t.mu.Lock()
	delete(s.t.subs, s)
	s.t.mu.Unlock()
	s.close()
	return nil
}
