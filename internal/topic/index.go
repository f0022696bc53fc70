package topic

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/selector"
)

// FilterIndex is the fast dispatch engine's view of one subscription
// table version. It replaces the paper-faithful O(n_fltr) linear scan with:
//
//   - hashed: exact correlation-ID filters, one map probe for the whole
//     population (the optimization the paper shows FioranoMQ lacks,
//     §III-B); selectors with a top-level `ident = literal` conjunct, one
//     probe per distinct identifier, the full selector run on the rules
//     that share the message's value only,
//   - stabbed: correlation-ID ranges "pre[lo;hi]suf", one parse per distinct
//     (prefix, suffix) and a binary search over its intervals,
//   - skipped: match-all subscriptions, never evaluated,
//   - linear: everything else (globs, selectors without such a conjunct,
//     And/Or composites, foreign Filter implementations), one evaluation
//     per distinct rule no matter how many subscribers installed it.
//
// The hashed and stabbed structures only nominate rules; what a rule
// matches is decided by the same code Filter.Matches runs.
//
// A FilterIndex is safe for concurrent use by any number of dispatch
// workers. Indexes obtained from Topic.Index share rule-set storage with
// the live store: the maps and the grouped index are frozen, while each rule
// set's membership slice is an atomically published immutable copy. A
// dispatcher holding an older index therefore sees current (not torn)
// membership for the rules it knew about, and picks up new rules on its
// next Index call — mirroring the staleness contract of Topic.Snapshot.
type FilterIndex struct {
	total int
	epoch uint64
	// all holds subscriptions that match every message (topic-only
	// filters); nil when none were ever installed.
	all *subSet
	// exact and ov bucket exact-match correlation-ID filters by literal.
	// ov is the small overlay for literals added since the last map merge;
	// both maps are frozen once published.
	exact map[string]*subSet
	ov    map[string]*subSet
	// grouped indexes the remaining filters, one entry per distinct rule;
	// nil when there are none. It is rebuilt only when the set of distinct
	// rules changes: subscribers joining or leaving an existing rule ride on
	// its *subSet.
	grouped *groupedIndex
}

type indexGroup struct {
	f   filter.Filter
	set *subSet
}

type groupedIndex struct {
	rules    int
	ranges   []rangeBucket
	pivots   []pivotBucket
	residual []indexGroup
}

// rangeBucket holds the range rules sharing one (prefix, suffix), sorted by
// lo; maxHi is the running maximum of hi, so a walk down from the last
// interval starting at or below n may stop at the first maxHi < n.
type rangeBucket struct {
	prefix, suffix string
	ivs            []interval
}

type interval struct {
	lo, hi, maxHi int64
	set           *subSet
}

// pivotBucket holds the selectors whose equality pivot reads one identifier,
// hashed by the literal it is compared with.
type pivotBucket struct {
	ident string
	byKey map[selector.PivotKey][]indexGroup
}

// buildGrouped classifies the distinct grouped rules (nil entries are
// retired slots) into range buckets, pivot buckets and the linear residual.
func buildGrouped(sets []*subSet) *groupedIndex {
	g := &groupedIndex{}
	rangeAt := make(map[[2]string]int)
	pivotAt := make(map[string]int)
	for _, s := range sets {
		if s == nil {
			continue
		}
		g.rules++
		switch f := s.f.(type) {
		case *filter.CorrelationID:
			if prefix, suffix, lo, hi, ok := f.Range(); ok {
				i, seen := rangeAt[[2]string{prefix, suffix}]
				if !seen {
					i = len(g.ranges)
					rangeAt[[2]string{prefix, suffix}] = i
					g.ranges = append(g.ranges, rangeBucket{prefix: prefix, suffix: suffix})
				}
				g.ranges[i].ivs = append(g.ranges[i].ivs, interval{lo: lo, hi: hi, set: s})
				continue
			}
		case *filter.Property:
			if ident, key, ok := selector.EqualityPivot(f.Selector()); ok {
				i, seen := pivotAt[ident]
				if !seen {
					i = len(g.pivots)
					pivotAt[ident] = i
					g.pivots = append(g.pivots, pivotBucket{ident: ident, byKey: make(map[selector.PivotKey][]indexGroup)})
				}
				g.pivots[i].byKey[key] = append(g.pivots[i].byKey[key], indexGroup{f: f, set: s})
				continue
			}
		}
		g.residual = append(g.residual, indexGroup{f: s.f, set: s})
	}
	if g.rules == 0 {
		return nil
	}
	for _, b := range g.ranges {
		slices.SortFunc(b.ivs, func(x, y interval) int { return cmp.Compare(x.lo, y.lo) })
		maxHi := int64(math.MinInt64)
		for i := range b.ivs {
			maxHi = max(maxHi, b.ivs[i].hi)
			b.ivs[i].maxHi = maxHi
		}
	}
	return g
}

// match appends the subscriptions of every grouped rule matching m. It
// counts one evaluation per bucket probe, one per further rule looked at in
// a bucket and one per residual rule — never more than one per rule.
func (g *groupedIndex) match(m *jms.Message, dst []*Subscription) ([]*Subscription, int) {
	evals := len(g.ranges) + len(g.pivots) + len(g.residual)
	for i := range g.ranges {
		b := &g.ranges[i]
		n, ok := filter.RangeNumber(m.Header.CorrelationID, b.prefix, b.suffix)
		if !ok {
			continue
		}
		// ivs[:end] are the intervals with lo <= n.
		end := sort.Search(len(b.ivs), func(k int) bool { return b.ivs[k].lo > n })
		looked := 0
		for k := end - 1; k >= 0 && b.ivs[k].maxHi >= n; k-- {
			looked++
			if b.ivs[k].hi >= n {
				dst = append(dst, b.ivs[k].set.loadPub()...)
			}
		}
		evals += max(looked-1, 0)
	}
	for i := range g.pivots {
		key, ok := selector.PivotKeyOf(g.pivots[i].ident, m)
		if !ok {
			continue
		}
		candidates := g.pivots[i].byKey[key]
		for _, c := range candidates {
			if c.f.Matches(m) {
				dst = append(dst, c.set.loadPub()...)
			}
		}
		evals += max(len(candidates)-1, 0)
	}
	for _, r := range g.residual {
		if r.f.Matches(m) {
			dst = append(dst, r.set.loadPub()...)
		}
	}
	return dst, evals
}

// NumSubscriptions returns the number of indexed subscriptions — the
// paper's n_fltr for this topic — as of the index's build version.
func (idx *FilterIndex) NumSubscriptions() int { return idx.total }

// NumGroups returns the number of distinct grouped rules (everything but
// the exact-literal and match-all populations).
func (idx *FilterIndex) NumGroups() int {
	if idx.grouped == nil {
		return 0
	}
	return idx.grouped.rules
}

// Match appends the subscriptions matching m to dst and returns the
// extended slice together with the number of filter evaluations performed
// (the exact-literal hash probe counts as one evaluation; see
// groupedIndex.match for the grouped rules). Each subscription is appended
// at most once. Passing a reused dst slice makes steady-state matching
// allocation-free.
func (idx *FilterIndex) Match(m *jms.Message, dst []*Subscription) ([]*Subscription, int) {
	if idx.all != nil {
		dst = append(dst, idx.all.loadPub()...)
	}
	evals := 0
	if idx.exact != nil || idx.ov != nil {
		evals++
		lit := m.Header.CorrelationID
		if s, ok := idx.exact[lit]; ok {
			dst = append(dst, s.loadPub()...)
		} else if s, ok := idx.ov[lit]; ok {
			dst = append(dst, s.loadPub()...)
		}
	}
	if idx.grouped != nil {
		var n int
		dst, n = idx.grouped.match(m, dst)
		evals += n
	}
	return dst, evals
}
