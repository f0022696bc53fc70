package broker

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jms"
	"repro/internal/topic"
)

// This file defines the stage interfaces of the dispatch pipeline and their
// two implementations. Both engines are configurations of the same
// run-to-completion worker (see pipeline.go); what distinguishes them is
// the stage implementations plugged in here and the number of workers per
// topic:
//
//	stage       Eq. 1 term       EngineFaithful         EngineFast
//	─────────   ──────────────   ────────────────────   ─────────────────────
//	receive     t_rcv            shared (pipeline.go)   shared (pipeline.go)
//	match       n_fltr·t_fltr    linearMatcher          indexedMatcher
//	replicate   part of t_tx     cloneReplicator        cowReplicator
//	transmit    part of t_tx     Outbox.put             Outbox.put
//
// The transmit stage is the one subscriber queue (outbox.go): a put into
// each matching subscription's Outbox, which applies the slow-consumer
// policy to the full ones. Under the default block policy a full queue
// parks the stage, and the push-back reaches publishers.
//
// The faithful pair reproduces the measured FioranoMQ behaviour the paper
// models: a linear scan over every installed filter and a deep copy per
// replica. The fast pair is the optimized path of PR 1: hash-indexed,
// deduplicated matching over topic.FilterIndex and copy-on-write views.

// Matcher is the filter-matching stage of the dispatch pipeline — the
// n_fltr·t_fltr term of Eq. 1. A Matcher instance belongs to exactly one
// dispatch worker (it may keep per-worker scratch), so implementations need
// not be safe for concurrent use.
type Matcher interface {
	// Match appends the delivery handles of the subscribers matching m to
	// dst and returns the extended slice, the number of installed filters
	// visible to this match (the paper's n_fltr) and the number of filter
	// evaluations actually performed. For the faithful linear scan the two
	// numbers coincide; the indexed matcher evaluates fewer rules than are
	// installed.
	Match(t *topic.Topic, m *jms.Message, dst []*Subscriber) (matches []*Subscriber, nFilters, evals int)
}

// Replicator is the replication stage — the copy component of Eq. 1's
// per-receiver t_tx term. The pipeline calls it once per matching
// subscriber whenever a message has more than one receiver; a sole receiver
// gets the original message without a copy.
type Replicator interface {
	// Replicate returns the copy of m to forward to one subscriber.
	Replicate(m *jms.Message) *jms.Message
}

// linearMatcher is the faithful matching stage: every installed filter is
// checked for every message — the measured FioranoMQ behaviour (no
// optimization for identical filters, see §III-B of the paper).
type linearMatcher struct{}

func (linearMatcher) Match(t *topic.Topic, m *jms.Message, dst []*Subscriber) ([]*Subscriber, int, int) {
	subs, _ := t.Snapshot()
	for _, sub := range subs {
		if !sub.Filter.Matches(m) {
			continue
		}
		if h, ok := sub.Attachment.(*Subscriber); ok {
			dst = append(dst, h)
		}
	}
	return dst, len(subs), len(subs)
}

// indexedMatcher is the fast matching stage: a hash probe covers the exact
// correlation-ID population, correlation-ID ranges are stabbed and
// `ident = literal` selectors hashed per bucket, identical rules are
// deduplicated, and only the remaining distinct rules are evaluated one by
// one (topic.FilterIndex). The scratch
// slice makes steady-state matching allocation-free; it is per-worker
// state, which is why each worker gets its own Matcher.
type indexedMatcher struct {
	scratch []*topic.Subscription
}

func (x *indexedMatcher) Match(t *topic.Topic, m *jms.Message, dst []*Subscriber) ([]*Subscriber, int, int) {
	idx, _ := t.Index()
	var evals int
	x.scratch, evals = idx.Match(m, x.scratch[:0])
	for _, sub := range x.scratch {
		if h, ok := sub.Attachment.(*Subscriber); ok {
			dst = append(dst, h)
		}
	}
	return dst, idx.NumSubscriptions(), evals
}

// cloneReplicator is the faithful replication stage: a deep copy per
// replica, the R−1 clone cost the paper's t_tx includes.
type cloneReplicator struct{}

func (cloneReplicator) Replicate(m *jms.Message) *jms.Message { return m.Clone() }

// cowReplicator is the fast replication stage: copy-on-write views aliasing
// the received message's property section and body (jms.Message.Shared), so
// the per-replica cost is a small header copy instead of a deep clone.
type cowReplicator struct{}

func (cowReplicator) Replicate(m *jms.Message) *jms.Message { return m.Shared() }

// Engine selects the dispatch implementation of a Broker.
type Engine int

// Dispatch engines.
const (
	// EngineFaithful is the paper-faithful configuration and the default:
	// one dispatch worker per topic (the single message-processing resource
	// of the paper's model), the linear filter scan, and a deep Clone per
	// extra replica. All Table I / Fig. 4 reproductions depend on this
	// structure (Eq. 1) and must run on it.
	EngineFaithful Engine = iota
	// EngineFast is the optimized configuration: indexed filter matching
	// (hash table over exact correlation-ID filters, deduplicated
	// evaluation of identical rules), Options.Shards dispatch workers per
	// topic with every publisher pinned to one of them (which keeps its
	// messages in FIFO order), and copy-on-write replication instead of
	// deep clones.
	EngineFast
)

// engineNames maps flag names to engines, in declaration order.
var engineNames = []struct {
	name   string
	engine Engine
}{
	{"faithful", EngineFaithful},
	{"fast", EngineFast},
}

// EngineNames returns the valid engine flag names.
func EngineNames() []string {
	names := make([]string, len(engineNames))
	for i, e := range engineNames {
		names[i] = e.name
	}
	return names
}

// String returns the engine's flag name.
func (e Engine) String() string {
	for _, en := range engineNames {
		if en.engine == e {
			return en.name
		}
	}
	return "Engine(" + strconv.Itoa(int(e)) + ")"
}

// ParseEngine parses a -engine flag value. The error of an unknown value
// enumerates the valid engine names.
func ParseEngine(s string) (Engine, error) {
	for _, en := range engineNames {
		if en.name == s {
			return en.engine, nil
		}
	}
	return 0, fmt.Errorf("broker: unknown engine %q (valid engines: %s)",
		s, strings.Join(EngineNames(), ", "))
}

// stageSet is one engine's configuration of the pipeline stages.
type stageSet struct {
	// workers is the number of dispatch workers per topic.
	workers int
	// newMatcher builds one matcher per worker (matchers hold scratch).
	newMatcher func() Matcher
	replicator Replicator
}

// stages returns the pipeline configuration of an engine.
func (b *Broker) stages(e Engine) stageSet {
	switch e {
	case EngineFast:
		return stageSet{
			workers:    b.opts.Shards,
			newMatcher: func() Matcher { return &indexedMatcher{} },
			replicator: cowReplicator{},
		}
	default:
		// The faithful engine is strictly serial: Eq. 1 models a single
		// message-processing resource.
		return stageSet{
			workers:    1,
			newMatcher: func() Matcher { return linearMatcher{} },
			replicator: cloneReplicator{},
		}
	}
}
