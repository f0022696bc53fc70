package topic_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/filter"
	"repro/internal/jms"
	"repro/internal/topic"
)

// oddLength is a Filter implementation from outside package filter: the
// index knows nothing about it and must keep it in the linear residual.
type oddLength struct{}

func (oddLength) Matches(m *jms.Message) bool { return len(m.Header.CorrelationID)%2 == 1 }
func (oddLength) Kind() filter.Kind           { return filter.KindCorrelationID }
func (oddLength) String() string              { return "odd-length" }

// rangeAffixes are the (prefix, suffix) families of the range rules. "ab"+"b"
// and "a"+"a" overlap in short IDs ("ab", "a"); ""+"" is the bare number.
var rangeAffixes = [][2]string{{"dev-", ""}, {"dev-", "-eu"}, {"", "-eu"}, {"ab", "b"}, {"a", "a"}, {"", ""}}

// rangeBounds covers disjoint, adjacent, nested, identical and single-point
// intervals, negative bounds and the int64 extremes.
var rangeBounds = []string{
	"[0;9]", "[10;19]", "[20;29]", "[40;45]", // disjoint and adjacent
	"[0;100]", "[10;90]", "[20;80]", "[30;70]", "[50;50]", // nested down to a point
	"[0;9]", "[7;7]", "[5;15]", // identical to / inside / straddling the first
	"[-20;-5]", "[-3;3]", "[-0;0]",
	"[-9223372036854775808;-9223372036854775807]",
	"[9223372036854775806;9223372036854775807]",
	"[-9223372036854775808;9223372036854775807]",
}

// idNumbers are what the ID carries between the affixes: numbers in and
// between the intervals, signed and zero-padded spellings, the int64
// extremes, an overflow, and things that are no number at all.
var idNumbers = []string{
	"0", "5", "7", "9", "10", "15", "19", "25", "30", "45", "46", "50", "70", "85", "100", "101",
	"-1", "-3", "-5", "-20", "-21", "+5", "-0", "007", "0050",
	"9223372036854775807", "9223372036854775806", "9223372036854775808",
	"-9223372036854775808", "-9223372036854775809", "99999999999999999999",
	"", "x", "5x", " 5", "-", "+",
}

// pivotSelectors have a top-level `ident = literal` conjunct the index may
// hash on: both operand orders, the three literal kinds, int against float
// in both directions, ±0, 2^53 and 2^53+1 (one float64, two int64s), a
// header field, and AND chains that bury the conjunct.
var pivotSelectors = []string{
	"region = 'r0'", "region = 'r1'", "'r2' = region", "region = ''",
	"qty = 0", "qty = 3", "3 = qty", "qty = 3.0", "qty = 7", "qty = -0.0", "qty = 2.5",
	"price = 3", "price = 2.5", "2.5 = price", "price = 0", "price = -0.0",
	"big = 9007199254740992", "big = 9007199254740993", "big = 9007199254740992.0",
	"zone = 1", "JMSCorrelationID = 'dev-5'",
	"region <> 'eu' AND qty = 3", "qty > 1 AND region = 'r1' AND price < 10",
	"(qty >= 0 AND 'r0' = region) AND (price = 2.5 AND zone IS NULL)",
	"qty = 3 AND qty = 7", "region = 'r1' AND (qty = 1 OR qty = 3)",
	"qty = 1 + 2", "flag AND qty = 3",
}

// residualSelectors have no such conjunct and must be evaluated one by one.
var residualSelectors = []string{
	"qty <> 3", "qty > 3", "qty = 1 OR region = 'r1'", "NOT (qty = 3)",
	"region LIKE 'r%'", "region LIKE '%r%1%'", "region IN ('r1', 'r2')",
	"qty = big", "qty + 1 = 4", "qty BETWEEN 1 AND 5", "zone IS NULL",
	"flag = TRUE", "flag", "NOT flag", "price = price",
}

var globs = []string{"ord-0*", "ord-1*", "dev-*", "*-eu", "*", "?", "a?b", "*5*"}

func pick(rng *rand.Rand, pool []string) string { return pool[rng.Intn(len(pool))] }

// randomFilter draws one filter from every family the index treats
// differently: match-all, hashed exact correlation IDs, stabbed ranges,
// hashed pivot selectors, and the linear residual (globs, selectors without
// a pivot, AND/OR composites, a foreign implementation). The pools are
// small on purpose so duplicates are common and rule deduplication is
// exercised.
func randomFilter(t *testing.T, rng *rand.Rand, depth int) filter.Filter {
	t.Helper()
	mk := func(f filter.Filter, err error) filter.Filter {
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	top := 12
	if depth > 0 {
		top = 14 // composites only at the top level, to bound depth
	}
	switch rng.Intn(top) {
	case 0:
		return filter.All{}
	case 1:
		return oddLength{}
	case 2, 3:
		return mk(filter.NewCorrelationID(fmt.Sprintf("#%d", rng.Intn(8))))
	case 4:
		return mk(filter.NewCorrelationID(pick(rng, globs)))
	case 5, 6, 7:
		affix := rangeAffixes[rng.Intn(len(rangeAffixes))]
		return mk(filter.NewCorrelationID(affix[0] + pick(rng, rangeBounds) + affix[1]))
	case 8, 9, 10:
		return mk(filter.NewProperty(pick(rng, pivotSelectors)))
	case 11:
		return mk(filter.NewProperty(pick(rng, residualSelectors)))
	case 12:
		return mk(filter.NewAnd(randomFilter(t, rng, 0), randomFilter(t, rng, 0)))
	default:
		return mk(filter.NewOr(randomFilter(t, rng, 0), randomFilter(t, rng, 0)))
	}
}

// randomMessage draws correlation IDs and properties from the same pools
// randomFilter targets, so matches are neither certain nor rare. Every
// property is sometimes missing and sometimes of a kind its selectors do not
// expect.
func randomMessage(t *testing.T, rng *rand.Rand) *jms.Message {
	t.Helper()
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	m := jms.NewMessage("t")
	var corrID string
	switch rng.Intn(6) {
	case 0:
		corrID = fmt.Sprintf("#%d", rng.Intn(8))
	case 1:
		corrID = fmt.Sprintf("ord-%d%d", rng.Intn(3), rng.Intn(100))
	case 2:
		corrID = pick(rng, []string{"", "a", "ab", "abb", "aa", "dev-", "-eu", "dev--eu", "other"})
	default:
		affix := rangeAffixes[rng.Intn(len(rangeAffixes))]
		corrID = affix[0] + pick(rng, idNumbers) + affix[1]
	}
	must(m.SetCorrelationID(corrID))

	switch rng.Intn(8) {
	case 0: // missing
	case 1:
		must(m.SetStringProperty("qty", "3"))
	case 2:
		must(m.SetFloat64Property("qty", pick3(rng, 3, 2.5, math.Copysign(0, -1))))
	case 3:
		must(m.SetInt64Property("qty", 0))
	default:
		must(m.SetInt32Property("qty", int32(rng.Intn(9))))
	}
	switch rng.Intn(8) {
	case 0:
	case 1:
		must(m.SetFloat64Property("price", math.NaN()))
	case 2:
		must(m.SetInt64Property("price", int64(rng.Intn(4))))
	case 3:
		must(m.SetFloat64Property("price", math.Copysign(0, -1)))
	case 4:
		must(m.SetBoolProperty("price", true))
	default:
		must(m.SetFloat64Property("price", pick3(rng, 2.5, 3, 0)))
	}
	switch rng.Intn(6) {
	case 0:
	case 1:
		must(m.SetInt32Property("region", 1))
	case 2:
		must(m.SetStringProperty("region", ""))
	default:
		must(m.SetStringProperty("region", fmt.Sprintf("r%d", rng.Intn(4))))
	}
	switch rng.Intn(5) {
	case 0:
		must(m.SetInt64Property("big", 1<<53))
	case 1:
		must(m.SetInt64Property("big", 1<<53+1))
	case 2:
		must(m.SetFloat64Property("big", 1<<53))
	}
	if rng.Intn(3) == 0 {
		must(m.SetBoolProperty("flag", rng.Intn(2) == 0))
	}
	if rng.Intn(6) == 0 {
		must(m.SetInt32Property("zone", 1))
	}
	return m
}

func pick3(rng *rand.Rand, a, b, c float64) float64 { return []float64{a, b, c}[rng.Intn(3)] }

// TestIndexMatchesLinearScan is the metamorphic equivalence check behind
// the fast engine's correctness claim: for random subscription populations
// under churn and random messages, the index the live store publishes must
// select exactly the subscriptions a faithful linear scan over
// Filter.Matches selects, each once. The index's hashing, interval
// stabbing, match-all bucketing and rule grouping are pure reorganizations
// of that scan; any divergence is a defect.
//
// Rounds alternate between churning whole rules (the grouped index is
// rebuilt) and adding or removing subscribers of rules that stay (it is
// carried over from the previous epoch), so both branches of the
// production rebuild are what is tested.
func TestIndexMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	r := topic.NewRegistry()
	tp, err := r.Configure("t")
	if err != nil {
		t.Fatal(err)
	}
	var live []*topic.Subscription
	subscribe := func(f filter.Filter) {
		s, err := r.Subscribe("t", f, nil)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, s)
	}
	unsubscribe := func(k int) {
		if err := r.Unsubscribe("t", live[k].ID); err != nil {
			t.Fatal(err)
		}
		live[k] = live[len(live)-1]
		live = live[:len(live)-1]
	}

	for round := 0; round < 60; round++ {
		switch {
		case round%3 == 2 && len(live) > 0:
			// Membership only: more subscribers for rules already installed.
			for i := rng.Intn(20); i >= 0; i-- {
				subscribe(live[rng.Intn(len(live))].Filter)
			}
		default:
			for i := rng.Intn(60); i >= 0; i-- {
				if len(live) > 0 && (len(live) > 150 || rng.Intn(3) == 0) {
					unsubscribe(rng.Intn(len(live)))
				} else {
					subscribe(randomFilter(t, rng, 1))
				}
			}
		}

		idx, iEpoch := tp.Index()
		subs, sEpoch := tp.Snapshot()
		if iEpoch != sEpoch {
			t.Fatalf("round %d: index epoch %d != snapshot epoch %d", round, iEpoch, sEpoch)
		}
		if idx.NumSubscriptions() != len(live) || len(subs) != len(live) {
			t.Fatalf("round %d: index holds %d, snapshot %d of %d subscriptions", round, idx.NumSubscriptions(), len(subs), len(live))
		}

		for msg := 0; msg < 20; msg++ {
			m := randomMessage(t, rng)

			var want []topic.SubscriptionID
			for _, s := range subs {
				if s.Filter.Matches(m) {
					want = append(want, s.ID)
				}
			}

			matched, evals := idx.Match(m, nil)
			got := make([]topic.SubscriptionID, len(matched))
			for i, s := range matched {
				got[i] = s.ID
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })

			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("round %d msg %q %v: match sets diverge (a repeated ID is a double match)\nindex: %v\nscan:  %v",
					round, m.Header.CorrelationID, m, got, want)
			}
			if evals > len(live) {
				t.Fatalf("round %d: index spent %d evaluations on %d subscriptions — worse than the scan it replaces",
					round, evals, len(live))
			}
		}
	}
}
