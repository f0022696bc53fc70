// Package filter implements the message selection mechanisms studied in the
// paper: topic selection, correlation-ID filters (with wildcard ranges such
// as [7;13]), and application-property filters (JMS selectors). Each
// subscriber installs exactly one filter; the broker tests every installed
// filter against every received message, which is the n_fltr * t_fltr cost
// term of the paper's processing-time model.
package filter

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/jms"
	"repro/internal/selector"
)

// Kind classifies a filter by the paper's three selection mechanisms. The
// kinds have different per-filter evaluation costs (Table I of the paper).
type Kind int

// Filter kinds, ordered by increasing evaluation cost.
const (
	// KindTopic matches all messages of the topic (no filtering work).
	KindTopic Kind = iota + 1
	// KindCorrelationID matches on the 128-byte correlation ID header.
	KindCorrelationID
	// KindProperty matches a JMS selector over the property section.
	KindProperty
	// KindComposite combines several filters with AND/OR.
	KindComposite
)

// String returns a short name of the kind.
func (k Kind) String() string {
	switch k {
	case KindTopic:
		return "topic"
	case KindCorrelationID:
		return "correlationID"
	case KindProperty:
		return "property"
	case KindComposite:
		return "composite"
	default:
		return "Kind(" + strconv.Itoa(int(k)) + ")"
	}
}

// Filter decides whether a message is forwarded to its subscriber.
type Filter interface {
	// Matches reports whether the message passes the filter.
	Matches(m *jms.Message) bool
	// Kind reports the filter's selection mechanism.
	Kind() Kind
	// String renders the filter rule.
	String() string
}

// ErrBadRange is returned for malformed correlation-ID range expressions.
var ErrBadRange = errors.New("filter: malformed correlation ID range")

// All matches every message of the topic (a subscriber without a filter).
// Dispatching through All corresponds to the paper's no-filter experiments.
type All struct{}

var _ Filter = All{}

// Matches always reports true.
func (All) Matches(*jms.Message) bool { return true }

// Kind returns KindTopic.
func (All) Kind() Kind { return KindTopic }

// String renders the match-all rule.
func (All) String() string { return "TRUE" }

// CorrelationID filters on the message's correlation ID. It supports the
// matching modes the paper describes for FioranoMQ: exact string match and
// wildcard matching with numeric ranges in the form "[7;13]" (matching the
// IDs "7" through "13"), optionally embedded in a literal prefix, plus the
// classic '*' / '?' glob wildcards.
type CorrelationID struct {
	expr string
	// exact is the fast path: non-empty when the expression has no
	// wildcards.
	exact string
	// prefix/suffix surround a numeric range when rangeSet is true.
	prefix, suffix string
	lo, hi         int64
	rangeSet       bool
	// glob is the compiled '*'/'?' pattern when globSet is true.
	glob    selector.Wildcard
	globSet bool
}

var _ Filter = (*CorrelationID)(nil)

// NewCorrelationID compiles a correlation-ID filter expression. Supported
// forms:
//
//	"abc"        exact match
//	"pre[7;13]"  numeric range with optional literal prefix/suffix
//	"dev-*"      glob with '*' (any run) and '?' (single character)
func NewCorrelationID(expr string) (*CorrelationID, error) {
	if len(expr) > jms.MaxCorrelationIDLen {
		return nil, fmt.Errorf("filter: correlation ID expression exceeds %d bytes", jms.MaxCorrelationIDLen)
	}
	f := &CorrelationID{expr: expr}

	if open := strings.IndexByte(expr, '['); open >= 0 {
		closeIdx := strings.IndexByte(expr, ']')
		if closeIdx < open {
			return nil, fmt.Errorf("%w: %q", ErrBadRange, expr)
		}
		body := expr[open+1 : closeIdx]
		parts := strings.SplitN(body, ";", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("%w: %q (want [lo;hi])", ErrBadRange, expr)
		}
		lo, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %q: %v", ErrBadRange, expr, err)
		}
		hi, err := strconv.ParseInt(strings.TrimSpace(parts[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: %q: %v", ErrBadRange, expr, err)
		}
		if lo > hi {
			return nil, fmt.Errorf("%w: %q (lo > hi)", ErrBadRange, expr)
		}
		f.prefix = expr[:open]
		f.suffix = expr[closeIdx+1:]
		f.lo, f.hi = lo, hi
		f.rangeSet = true
		return f, nil
	}

	if strings.ContainsAny(expr, "*?") {
		glob, err := selector.CompileWildcard(expr, '*', '?', 0)
		if err != nil {
			return nil, fmt.Errorf("filter: correlation ID glob %q: %w", expr, err)
		}
		f.glob, f.globSet = glob, true
		return f, nil
	}

	f.exact = expr
	return f, nil
}

// Matches tests the message's correlation ID against the compiled rule.
func (f *CorrelationID) Matches(m *jms.Message) bool {
	id := m.Header.CorrelationID
	switch {
	case f.rangeSet:
		n, ok := RangeNumber(id, f.prefix, f.suffix)
		return ok && n >= f.lo && n <= f.hi
	case f.globSet:
		return f.glob.Match(id)
	default:
		return id == f.exact
	}
}

// RangeNumber cuts prefix and suffix off a correlation ID and parses what is
// left as the number a "[lo;hi]" range rule compares. It is the one place
// that decides what such a number is ("+5", "-3" and "007" are numbers; an
// ID too short to hold both affixes, an empty middle and an int64 overflow
// are not), shared by Matches and the dispatch index's interval buckets.
func RangeNumber(id, prefix, suffix string) (int64, bool) {
	if len(id) < len(prefix)+len(suffix) || !strings.HasPrefix(id, prefix) || !strings.HasSuffix(id, suffix) {
		return 0, false
	}
	n, err := strconv.ParseInt(id[len(prefix):len(id)-len(suffix)], 10, 64)
	return n, err == nil
}

// Kind returns KindCorrelationID.
func (f *CorrelationID) Kind() Kind { return KindCorrelationID }

// Range returns the affixes and inclusive bounds of a "pre[lo;hi]suf" rule
// and true when the expression is one. Range rules sharing both affixes are
// the interval-indexable population of the fast dispatch engine.
func (f *CorrelationID) Range() (prefix, suffix string, lo, hi int64, ok bool) {
	return f.prefix, f.suffix, f.lo, f.hi, f.rangeSet
}

// Exact returns the literal correlation ID the filter matches and true when
// the expression is a plain string (no range, no glob). Exact filters are
// the hash-indexable population of the fast dispatch engine: a single map
// probe replaces their whole linear scan.
func (f *CorrelationID) Exact() (string, bool) {
	if f.rangeSet || f.globSet {
		return "", false
	}
	return f.exact, true
}

// String returns the original expression.
func (f *CorrelationID) String() string { return f.expr }

// Property filters with a JMS selector over the message property section.
type Property struct {
	src  string
	node selector.Node
}

var _ Filter = (*Property)(nil)

// NewProperty parses and compiles a JMS selector string into a filter.
// Constant subexpressions are folded at compile time, shrinking the
// per-message evaluation work on the broker's hot path.
func NewProperty(src string) (*Property, error) {
	node, err := selector.Parse(src)
	if err != nil {
		return nil, err
	}
	return &Property{src: src, node: selector.Fold(node)}, nil
}

// MustProperty is NewProperty but panics on error; for tests and examples.
func MustProperty(src string) *Property {
	f, err := NewProperty(src)
	if err != nil {
		panic(err)
	}
	return f
}

// Matches evaluates the selector; only a TRUE result matches (UNKNOWN
// rejects per the JMS specification).
func (f *Property) Matches(m *jms.Message) bool {
	return selector.Matches(f.node, m)
}

// Kind returns KindProperty.
func (f *Property) Kind() Kind { return KindProperty }

// String returns the selector source.
func (f *Property) String() string { return f.src }

// Selector exposes the parsed AST (for diagnostics).
func (f *Property) Selector() selector.Node { return f.node }

// And matches when every child filter matches. The paper's "complex
// AND-filter rules".
type And struct {
	children []Filter
}

var _ Filter = (*And)(nil)

// NewAnd builds a conjunction of filters. It requires at least one child.
func NewAnd(children ...Filter) (*And, error) {
	if len(children) == 0 {
		return nil, errors.New("filter: AND requires at least one child")
	}
	cs := make([]Filter, len(children))
	copy(cs, children)
	return &And{children: cs}, nil
}

// Matches reports whether all children match.
func (f *And) Matches(m *jms.Message) bool {
	for _, c := range f.children {
		if !c.Matches(m) {
			return false
		}
	}
	return true
}

// Kind returns KindComposite.
func (f *And) Kind() Kind { return KindComposite }

// String renders the conjunction.
func (f *And) String() string { return joinChildren(f.children, " AND ") }

// Or matches when any child filter matches. The paper's "complex OR-filter
// rules".
type Or struct {
	children []Filter
}

var _ Filter = (*Or)(nil)

// NewOr builds a disjunction of filters. It requires at least one child.
func NewOr(children ...Filter) (*Or, error) {
	if len(children) == 0 {
		return nil, errors.New("filter: OR requires at least one child")
	}
	cs := make([]Filter, len(children))
	copy(cs, children)
	return &Or{children: cs}, nil
}

// Matches reports whether any child matches.
func (f *Or) Matches(m *jms.Message) bool {
	for _, c := range f.children {
		if c.Matches(m) {
			return true
		}
	}
	return false
}

// Kind returns KindComposite.
func (f *Or) Kind() Kind { return KindComposite }

// String renders the disjunction.
func (f *Or) String() string { return joinChildren(f.children, " OR ") }

func joinChildren(children []Filter, sep string) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = "(" + c.String() + ")"
	}
	return strings.Join(parts, sep)
}
