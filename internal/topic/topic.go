// Package topic manages the broker's destination tables: the set of
// configured topics and, per topic, the dynamically installed subscriptions
// with their filters.
//
// As in the paper, topics are a coarse, static selection mechanism that must
// be configured before system start ("topics virtually separate the JMS
// server into several logical sub-servers"), while filters are installed and
// removed dynamically during operation.
//
// The store is built for 10^5-10^6 concurrent subscriptions under churn:
// subscribe and unsubscribe are O(1) (swap-remove into compact per-rule
// sets), and the immutable views dispatchers consume — Snapshot for the
// paper-faithful linear scan, Index for the hashed fast path — are rebuilt
// lazily, at most once per observed change batch, instead of once per
// mutation. A storm of K subscription changes between two dispatches costs
// O(K) plus a single rebuild proportional to the touched rule sets, not
// O(K·n).
package topic

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/filter"
)

// Errors returned by the registry.
var (
	// ErrNoSuchTopic is returned when addressing an unconfigured topic.
	ErrNoSuchTopic = errors.New("topic: no such topic")
	// ErrDuplicateTopic is returned when configuring a topic twice.
	ErrDuplicateTopic = errors.New("topic: duplicate topic")
	// ErrNoSuchSubscription is returned when removing an unknown subscription.
	ErrNoSuchSubscription = errors.New("topic: no such subscription")
)

// SubscriptionID identifies a subscription within a registry.
type SubscriptionID uint64

// Subscription is one subscriber's registration on a topic: exactly one
// filter, as in the paper ("each subscriber has only a single filter").
type Subscription struct {
	ID     SubscriptionID
	Topic  string
	Filter filter.Filter
	// Attachment is opaque owner data (e.g. the broker's delivery handle).
	// It is set at subscription time and never modified afterwards, so
	// dispatchers may read it without locking.
	Attachment any

	// Store-internal bookkeeping, guarded by the owning Topic's mu.
	set  *subSet // the rule set this subscription lives in
	spos int     // index within set.live
	mpos int     // index within Topic.master
}

// Thresholds for the amortized exact-literal map maintenance. Published
// maps are frozen (they are read lock-free by dispatchers), so new literals
// accumulate in a small overflow map that is re-cloned per rebuild, and
// literal deletions become empty tombstone sets. Merges and compactions
// rewrite the big map only once the small structures justify an O(n) pass.
const (
	// exactOverflowMax bounds the overflow map; reaching it merges the
	// overflow into a fresh main map.
	exactOverflowMax = 4096
	// exactDeadMin is the minimum number of tombstoned literals before a
	// compaction of the main map is considered.
	exactDeadMin = 4096
)

// Topic is one configured destination and its subscription table.
type Topic struct {
	name string

	// mu serializes writers; readers go through the published snapshot and
	// index caches and never take a lock, so the dispatch hot path costs a
	// few atomic loads per message regardless of subscription churn.
	mu sync.Mutex

	// version counts mutations; published views carry the version they
	// were built at, making staleness a single atomic comparison.
	version atomic.Uint64
	count   atomic.Int64

	// master is the compact list of live subscriptions (swap-remove order).
	master []*Subscription
	byID   map[SubscriptionID]*Subscription

	// Rule sets: one compact subscriber set per distinct dispatch rule.
	allSet    *subSet            // match-all subscriptions
	exact     map[string]*subSet // frozen main map: exact correlation-ID literal → set
	exactOv   map[string]*subSet // frozen overflow map for recent literals
	exactPend map[string]*subSet // literals added since the last rebuild (private)
	exactDead int                // tombstoned (empty) literal sets in exact

	groupList  []*subSet // insertion-ordered grouped rules; nil = retired slot
	groupSets  map[any]*subSet
	groupDead  int
	groupsMod  bool // the published group slice must be rebuilt
	structural bool // exact maps must be re-derived (pending adds / merge)

	dirtySets []*subSet

	snap atomic.Pointer[snapshot]
	idx  atomic.Pointer[FilterIndex]
}

// snapshot is one immutable version of a topic's subscription list for the
// paper-faithful linear scan.
type snapshot struct {
	subs  []*Subscription
	epoch uint64
}

// subSet is a compact subscriber set for one dispatch rule: a mutable live
// slice (swap-remove, guarded by Topic.mu) plus an immutable published copy
// swapped in atomically for lock-free dispatch reads.
type subSet struct {
	live  []*Subscription
	pub   atomic.Pointer[[]*Subscription]
	dirty bool
	// Classification, for retirement on emptying.
	f    filter.Filter // representative rule (grouped sets)
	key  any           // group key, or exact literal (string), or nil for allSet
	gpos int           // index in Topic.groupList (grouped sets)
}

func (s *subSet) loadPub() []*Subscription {
	p := s.pub.Load()
	if p == nil {
		return nil
	}
	return *p
}

func (s *subSet) publishLocked() {
	out := make([]*Subscription, len(s.live))
	copy(out, s.live)
	s.pub.Store(&out)
	s.dirty = false
}

// Name returns the topic name.
func (t *Topic) Name() string { return t.name }

// Snapshot returns the current subscription list and its epoch. The slice
// is immutable: a fresh copy is published per observed change batch, so a
// returned snapshot never mutates under the caller. The steady-state call
// is lock-free (two atomic loads); the first call after a change pays one
// O(n) copy, amortizing subscription storms instead of charging every
// mutation.
func (t *Topic) Snapshot() ([]*Subscription, uint64) {
	s := t.snap.Load()
	if v := t.version.Load(); s != nil && s.epoch == v {
		return s.subs, s.epoch
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	if s := t.snap.Load(); s != nil && s.epoch == v {
		return s.subs, s.epoch
	}
	subs := make([]*Subscription, len(t.master))
	copy(subs, t.master)
	ns := &snapshot{subs: subs, epoch: v}
	t.snap.Store(ns)
	return subs, v
}

// Index returns the filter index over the current subscription table and
// its epoch. The index is rebuilt on first use after a subscription change
// — republishing only the rule sets that actually changed — and cached, so
// steady-state dispatching pays only atomic loads. A distinct *FilterIndex
// is returned for every epoch.
func (t *Topic) Index() (*FilterIndex, uint64) {
	c := t.idx.Load()
	if v := t.version.Load(); c != nil && c.epoch == v {
		return c, c.epoch
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	v := t.version.Load()
	if c := t.idx.Load(); c != nil && c.epoch == v {
		return c, c.epoch
	}
	nc := t.rebuildIndexLocked(v)
	t.idx.Store(nc)
	return nc, v
}

// rebuildIndexLocked publishes dirty rule sets and assembles a fresh
// FilterIndex. Cost is proportional to the sets touched since the last
// rebuild (plus rare amortized map merges and, when the set of distinct
// grouped rules changed, one classification and sort of those rules), not
// to the subscriber count.
func (t *Topic) rebuildIndexLocked(v uint64) *FilterIndex {
	for _, s := range t.dirtySets {
		s.publishLocked()
	}
	t.dirtySets = t.dirtySets[:0]

	if t.structural {
		t.remapExactLocked()
		t.structural = false
	}

	idx := &FilterIndex{
		epoch: v,
		total: int(t.count.Load()),
		exact: t.exact,
		ov:    t.exactOv,
	}
	if t.allSet != nil {
		idx.all = t.allSet
	}
	prev := t.idx.Load()
	if t.groupsMod || prev == nil {
		t.compactGroupListLocked()
		idx.grouped = buildGrouped(t.groupList)
		t.groupsMod = false
	} else {
		idx.grouped = prev.grouped
	}
	return idx
}

// remapExactLocked folds pending literal additions into the frozen exact
// maps: normally a clone of the small overflow map; once the overflow or
// the tombstone population crosses its threshold, a full O(#literals)
// merge/compaction into a fresh main map.
func (t *Topic) remapExactLocked() {
	pending := len(t.exactPend)
	merged := len(t.exactOv) + pending
	if merged >= exactOverflowMax ||
		(t.exactDead >= exactDeadMin && t.exactDead*2 >= len(t.exact)) {
		// Full merge: fresh main map without tombstones, overflow folded in.
		main := make(map[string]*subSet, len(t.exact)+merged)
		for lit, s := range t.exact {
			if len(s.live) > 0 {
				main[lit] = s
			}
		}
		for lit, s := range t.exactOv {
			if len(s.live) > 0 {
				main[lit] = s
			}
		}
		for lit, s := range t.exactPend {
			main[lit] = s
		}
		t.exact = main
		t.exactOv = nil
		t.exactDead = 0
	} else if pending > 0 {
		ov := make(map[string]*subSet, len(t.exactOv)+pending)
		for lit, s := range t.exactOv {
			ov[lit] = s
		}
		for lit, s := range t.exactPend {
			ov[lit] = s
		}
		t.exactOv = ov
	}
	if pending > 0 {
		t.exactPend = nil
	}
}

func (t *Topic) compactGroupListLocked() {
	if t.groupDead*2 < len(t.groupList) {
		return
	}
	kept := t.groupList[:0]
	for _, s := range t.groupList {
		if s != nil {
			s.gpos = len(kept)
			kept = append(kept, s)
		}
	}
	t.groupList = kept
	t.groupDead = 0
}

// NumSubscriptions returns the number of installed subscriptions.
func (t *Topic) NumSubscriptions() int {
	return int(t.count.Load())
}

func (t *Topic) markDirtyLocked(s *subSet) {
	if !s.dirty {
		s.dirty = true
		t.dirtySets = append(t.dirtySets, s)
	}
}

// lookupExactLocked finds the set for an exact correlation-ID literal
// across the main, overflow and pending maps.
func (t *Topic) lookupExactLocked(lit string) *subSet {
	if s, ok := t.exact[lit]; ok {
		return s
	}
	if s, ok := t.exactOv[lit]; ok {
		return s
	}
	if s, ok := t.exactPend[lit]; ok {
		return s
	}
	return nil
}

// setForLocked classifies a filter and returns (creating if necessary) the
// rule set its subscriptions live in.
func (t *Topic) setForLocked(f filter.Filter, sub *Subscription) *subSet {
	switch ff := f.(type) {
	case filter.All:
		if t.allSet == nil {
			t.allSet = &subSet{}
		}
		return t.allSet
	case *filter.CorrelationID:
		if lit, ok := ff.Exact(); ok {
			if s := t.lookupExactLocked(lit); s != nil {
				if len(s.live) == 0 {
					// Reviving a tombstoned literal.
					if _, inMain := t.exact[lit]; inMain {
						t.exactDead--
					}
				}
				return s
			}
			s := &subSet{key: lit}
			if t.exactPend == nil {
				t.exactPend = make(map[string]*subSet)
			}
			t.exactPend[lit] = s
			t.structural = true
			return s
		}
	}
	// Grouped evaluation: one set per distinct rule. Interned filters group
	// by canonical instance; composites group by rendered rule text; unknown
	// Filter implementations are conservatively given their own set.
	var key any
	switch f.(type) {
	case *filter.CorrelationID, *filter.Property:
		key = f // canonical via the registry's interner
	case *filter.And, *filter.Or:
		key = f.Kind().String() + "\x00" + f.String()
	default:
		key = sub
	}
	if s, ok := t.groupSets[key]; ok {
		return s
	}
	s := &subSet{f: f, key: key, gpos: len(t.groupList)}
	if t.groupSets == nil {
		t.groupSets = make(map[any]*subSet)
	}
	t.groupSets[key] = s
	t.groupList = append(t.groupList, s)
	t.groupsMod = true
	return s
}

func (t *Topic) add(s *Subscription) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.mpos = len(t.master)
	t.master = append(t.master, s)
	if t.byID == nil {
		t.byID = make(map[SubscriptionID]*Subscription)
	}
	t.byID[s.ID] = s
	set := t.setForLocked(s.Filter, s)
	s.set = set
	s.spos = len(set.live)
	set.live = append(set.live, s)
	t.markDirtyLocked(set)
	t.count.Add(1)
	t.version.Add(1)
}

func (t *Topic) remove(id SubscriptionID) (*Subscription, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	delete(t.byID, id)

	// Swap-remove from the master list.
	last := len(t.master) - 1
	t.master[s.mpos] = t.master[last]
	t.master[s.mpos].mpos = s.mpos
	t.master[last] = nil
	t.master = t.master[:last]

	// Swap-remove from the rule set.
	set := s.set
	sl := len(set.live) - 1
	set.live[s.spos] = set.live[sl]
	set.live[s.spos].spos = s.spos
	set.live[sl] = nil
	set.live = set.live[:sl]
	t.markDirtyLocked(set)
	if sl == 0 {
		t.retireSetLocked(set)
	}
	s.set = nil

	t.count.Add(-1)
	t.version.Add(1)
	return s, true
}

// retireSetLocked handles a rule set whose last subscriber left. Grouped
// sets leave the published group list (rebuilt next Index call); exact
// literal sets become tombstones in the frozen maps — an empty published
// slice — counted toward the next compaction. The all set just stays empty.
func (t *Topic) retireSetLocked(set *subSet) {
	switch {
	case set == t.allSet:
		// keep; may be revived
	case set.key == nil:
	default:
		if lit, ok := set.key.(string); ok && set.f == nil {
			if _, inMain := t.exact[lit]; inMain {
				t.exactDead++
				if t.exactDead >= exactDeadMin && t.exactDead*2 >= len(t.exact) {
					t.structural = true
				}
			} else if _, inPend := t.exactPend[lit]; inPend {
				delete(t.exactPend, lit)
			}
			// Overflow tombstones are dropped at the next merge.
			return
		}
		if _, ok := t.groupSets[set.key]; ok {
			delete(t.groupSets, set.key)
			t.groupList[set.gpos] = nil
			t.groupDead++
			t.groupsMod = true
		}
	}
}

// Registry is the broker's topic table.
type Registry struct {
	mu     sync.RWMutex
	topics map[string]*Topic
	nextID SubscriptionID
	intern *Interner
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{topics: make(map[string]*Topic), intern: NewInterner()}
}

// Configure adds a topic. Topics must be configured before use, mirroring
// the static topic setup of a JMS server.
func (r *Registry) Configure(name string) (*Topic, error) {
	if name == "" {
		return nil, errors.New("topic: empty topic name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.topics[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateTopic, name)
	}
	t := &Topic{name: name}
	t.snap.Store(&snapshot{})
	r.topics[name] = t
	return t, nil
}

// Lookup returns the topic with the given name.
func (r *Registry) Lookup(name string) (*Topic, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	t, ok := r.topics[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTopic, name)
	}
	return t, nil
}

// Topics returns the sorted names of all configured topics.
func (r *Registry) Topics() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.topics))
	for name := range r.topics {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Subscribe installs a subscription with the given filter on a topic and
// returns it. A nil filter subscribes to every message of the topic. The
// attachment is stored on the subscription before it becomes visible to
// dispatchers.
//
// The filter and topic name are interned: subscriptions sharing a rule
// share one Filter instance and one copy of the topic string, so a million
// subscribers over a few thousand distinct rules cost close to the
// per-subscription struct alone.
func (r *Registry) Subscribe(topicName string, f filter.Filter, attachment any) (*Subscription, error) {
	t, err := r.Lookup(topicName)
	if err != nil {
		return nil, err
	}
	if f == nil {
		f = filter.All{}
	}
	f = r.intern.Intern(f)
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()

	s := &Subscription{ID: id, Topic: t.name, Filter: f, Attachment: attachment}
	t.add(s)
	return s, nil
}

// Unsubscribe removes a subscription.
func (r *Registry) Unsubscribe(topicName string, id SubscriptionID) error {
	t, err := r.Lookup(topicName)
	if err != nil {
		return err
	}
	s, ok := t.remove(id)
	if !ok {
		return fmt.Errorf("%w: %d on %q", ErrNoSuchSubscription, id, topicName)
	}
	r.intern.Release(s.Filter)
	return nil
}

// InternedRules returns the number of distinct filter rules currently
// interned across the registry — a direct view of rule-text sharing for
// stress and memory accounting.
func (r *Registry) InternedRules() int { return r.intern.Len() }

// TotalSubscriptions returns the number of subscriptions across all topics —
// the paper's n_fltr when all subscribers sit on one topic.
func (r *Registry) TotalSubscriptions() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	total := 0
	for _, t := range r.topics {
		total += t.NumSubscriptions()
	}
	return total
}
