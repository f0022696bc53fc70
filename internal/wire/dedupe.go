package wire

import (
	"strings"
	"sync"

	"repro/internal/jms"
)

// Publish deduplication: a reconnecting publisher cannot know whether a
// publish whose ack was lost reached the broker, so it must resend —
// at-least-once. To lift that to effectively-once, retry-capable
// publishers stamp every message with a publisher identity and a
// per-publisher sequence number in hidden properties; the server records
// (publisher, seq) pairs and acknowledges redeliveries without
// publishing them again.

// Hidden message properties carrying the publish-dedupe identity. The
// "$jmsperf" prefix marks infrastructure properties (the cluster layer
// uses the same convention for its hop count); selectors on application
// properties are unaffected.
const (
	// PubIDProperty is the string property naming the publisher.
	PubIDProperty = "$jmsperfPub"
	// PubSeqProperty is the int64 property holding the publisher-local
	// sequence number, starting at 1.
	PubSeqProperty = "$jmsperfSeq"
)

// pubDedupWindow bounds the per-publisher set of remembered sequence
// numbers. Sequences older than maxSeq-window are classified as
// duplicates without consulting the set: a publisher would need that
// many publishes in flight at once for the window to misclassify, far
// beyond any client's push-back window.
const pubDedupWindow = 8192

// pubIdentity extracts the dedupe identity of a message, if stamped.
func pubIdentity(m *jms.Message) (pub string, seq int64, ok bool) {
	p, ok := m.Property(PubIDProperty)
	if !ok || p.Type != jms.TypeString {
		return "", 0, false
	}
	q, ok := m.Property(PubSeqProperty)
	if !ok || (q.Type != jms.TypeInt64 && q.Type != jms.TypeInt32) {
		return "", 0, false
	}
	return p.S, q.I, true
}

// pubDedup is the server-wide duplicate-publish table. It is shared by
// all connections of a Server because a retried publish typically
// arrives on a different connection than the original.
type pubDedup struct {
	mu   sync.Mutex
	pubs map[string]*pubWindow
}

type pubWindow struct {
	maxSeq int64
	seen   map[int64]struct{}
}

// record registers (pub, seq) and reports whether it is new. Duplicates
// — already-seen sequences, or sequences that fell out of the window —
// return false; the caller acks them without publishing.
func (pd *pubDedup) record(pub string, seq int64) bool {
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if pd.pubs == nil {
		pd.pubs = make(map[string]*pubWindow)
	}
	w := pd.pubs[pub]
	if w == nil {
		// pub may alias a message's recycled storage (cutString); the
		// table outlives the message, so it keeps a copy.
		w = &pubWindow{seen: make(map[int64]struct{})}
		pd.pubs[strings.Clone(pub)] = w
	}
	if seq <= w.maxSeq-pubDedupWindow {
		return false
	}
	if _, dup := w.seen[seq]; dup {
		return false
	}
	w.seen[seq] = struct{}{}
	if seq > w.maxSeq {
		w.maxSeq = seq
	}
	if len(w.seen) > 2*pubDedupWindow {
		for s := range w.seen {
			if s <= w.maxSeq-pubDedupWindow {
				delete(w.seen, s)
			}
		}
	}
	return true
}

// unrecord forgets a pair recorded for a publish that then failed in the
// broker, so a retry of the same sequence — e.g. after the client fixes
// the error by creating the missing topic — is published instead of
// being acknowledged as a duplicate. maxSeq is left as raised: client
// sequences are monotonic, so the failed one cannot be far enough ahead
// to age live sequences out of the window.
func (pd *pubDedup) unrecord(pub string, seq int64) {
	pd.mu.Lock()
	defer pd.mu.Unlock()
	if w := pd.pubs[pub]; w != nil {
		delete(w.seen, seq)
	}
}
