package topic

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/filter"
	"repro/internal/jms"
)

func corrID(t *testing.T, expr string) filter.Filter {
	t.Helper()
	f, err := filter.NewCorrelationID(expr)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func indexedTopic(t *testing.T, filters []filter.Filter) (*Registry, *Topic) {
	t.Helper()
	r := NewRegistry()
	tp, err := r.Configure("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range filters {
		if _, err := r.Subscribe("t", f, nil); err != nil {
			t.Fatal(err)
		}
	}
	return r, tp
}

func matchIDs(idx *FilterIndex, m *jms.Message) (map[SubscriptionID]bool, int) {
	subs, evals := idx.Match(m, nil)
	ids := make(map[SubscriptionID]bool, len(subs))
	for _, s := range subs {
		ids[s.ID] = true
	}
	return ids, evals
}

// TestIndexAgreesWithLinearScan checks that Match returns exactly the
// subscriptions a linear scan would, over a mixed filter population.
func TestIndexAgreesWithLinearScan(t *testing.T) {
	filters := []filter.Filter{
		nil, // All
		corrID(t, "#0"),
		corrID(t, "#0"), // duplicate exact
		corrID(t, "#1"),
		corrID(t, "dev-*"),
		corrID(t, "id[3;9]"),
		filter.MustProperty("prop = 0"),
		filter.MustProperty("prop = 0"), // duplicate selector
		filter.MustProperty("prop = 1"),
	}
	_, tp := indexedTopic(t, filters)
	idx, _ := tp.Index()

	msgs := []*jms.Message{}
	for _, id := range []string{"#0", "#1", "#2", "dev-7", "id5", "id99"} {
		m := jms.NewMessage("t")
		if err := m.SetCorrelationID(id); err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, m)
	}
	mp := jms.NewMessage("t")
	if err := mp.SetInt32Property("prop", 0); err != nil {
		t.Fatal(err)
	}
	msgs = append(msgs, mp)

	subs, _ := tp.Snapshot()
	for _, m := range msgs {
		want := make(map[SubscriptionID]bool)
		for _, s := range subs {
			if s.Filter.Matches(m) {
				want[s.ID] = true
			}
		}
		got, _ := matchIDs(idx, m)
		if len(got) != len(want) {
			t.Fatalf("corrID %q: index matched %d subs, linear scan %d", m.Header.CorrelationID, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Errorf("corrID %q: index missed subscription %d", m.Header.CorrelationID, id)
			}
		}
	}
}

// TestIndexDeduplicatesIdenticalFilters verifies the grouped evaluator:
// identical rules share one entry, and a message costs one probe of the
// `prop` pivot bucket plus one evaluation of the glob, however many
// subscribers and literals there are.
func TestIndexDeduplicatesIdenticalFilters(t *testing.T) {
	var filters []filter.Filter
	for i := 0; i < 10; i++ {
		filters = append(filters, filter.MustProperty("prop = 1")) // one group
	}
	filters = append(filters, corrID(t, "dev-*"), corrID(t, "dev-*")) // one group
	filters = append(filters, filter.MustProperty("prop = 2"))        // one group
	_, tp := indexedTopic(t, filters)
	idx, _ := tp.Index()
	if idx.NumGroups() != 3 {
		t.Fatalf("NumGroups = %d, want 3", idx.NumGroups())
	}

	m := jms.NewMessage("t")
	if err := m.SetInt32Property("prop", 1); err != nil {
		t.Fatal(err)
	}
	ids, evals := matchIDs(idx, m)
	if evals != 2 {
		t.Errorf("evals = %d, want 2 (one pivot probe, one residual glob)", evals)
	}
	if len(ids) != 10 {
		t.Errorf("matched %d subscriptions, want the 10 identical-filter subscribers", len(ids))
	}
}

// TestIndexExactBucketEvals verifies that any number of exact
// correlation-ID filters costs a single probe.
func TestIndexExactBucketEvals(t *testing.T) {
	var filters []filter.Filter
	for i := 0; i < 200; i++ {
		filters = append(filters, corrID(t, "#"+strconv.Itoa(i)))
	}
	_, tp := indexedTopic(t, filters)
	idx, _ := tp.Index()
	if idx.NumGroups() != 0 {
		t.Fatalf("NumGroups = %d, want 0 (all exact)", idx.NumGroups())
	}
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("#42"); err != nil {
		t.Fatal(err)
	}
	ids, evals := matchIDs(idx, m)
	if evals != 1 {
		t.Errorf("evals = %d, want 1 (single hash probe)", evals)
	}
	if len(ids) != 1 {
		t.Errorf("matched %d subscriptions, want 1", len(ids))
	}
}

// TestIndexCachedPerEpoch verifies the version-checked cache: the same
// index is returned until the subscription table changes.
func TestIndexCachedPerEpoch(t *testing.T) {
	r, tp := indexedTopic(t, []filter.Filter{corrID(t, "#0")})
	idx1, epoch1 := tp.Index()
	idx2, epoch2 := tp.Index()
	if idx1 != idx2 || epoch1 != epoch2 {
		t.Fatal("Index must be cached between subscription changes")
	}
	sub, err := r.Subscribe("t", corrID(t, "#1"), nil)
	if err != nil {
		t.Fatal(err)
	}
	idx3, epoch3 := tp.Index()
	if idx3 == idx1 || epoch3 == epoch1 {
		t.Fatal("Index must be rebuilt after Subscribe")
	}
	if idx3.NumSubscriptions() != 2 {
		t.Errorf("NumSubscriptions = %d, want 2", idx3.NumSubscriptions())
	}
	if err := r.Unsubscribe("t", sub.ID); err != nil {
		t.Fatal(err)
	}
	idx4, _ := tp.Index()
	if idx4 == idx3 {
		t.Fatal("Index must be rebuilt after Unsubscribe")
	}
	if idx4.NumSubscriptions() != 1 {
		t.Errorf("NumSubscriptions = %d, want 1", idx4.NumSubscriptions())
	}
}

// scanPopulation is the repository benchmark's filter_scan shape: 256
// disjoint "dev-[lo;hi]" ranges, 256 selectors (half `region = '...'`, half
// `region <> 'eu' AND zone = N`) and one unfiltered subscriber, each rule
// installed once.
func scanPopulation(t *testing.T) (tp *Topic, ranges [][2]int, zones []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	var filters []filter.Filter
	for i := 0; i < 256; i++ {
		lo := i*1000 + rng.Intn(500)
		hi := lo + 1 + rng.Intn(499)
		ranges = append(ranges, [2]int{lo, hi})
		filters = append(filters, corrID(t, fmt.Sprintf("dev-[%d;%d]", lo, hi)))
	}
	for i := 0; i < 256; i++ {
		expr := fmt.Sprintf("region = 'z%d'", i)
		if i%2 == 1 {
			zones = append(zones, i*1000+rng.Intn(1000))
			expr = fmt.Sprintf("region <> 'eu' AND zone = %d", zones[len(zones)-1])
		}
		filters = append(filters, filter.MustProperty(expr))
	}
	filters = append(filters, nil)
	_, tp = indexedTopic(t, filters)
	return tp, ranges, zones
}

func scanMessage(t *testing.T, id, region string, zone int) *jms.Message {
	t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID(id); err != nil {
		t.Fatal(err)
	}
	if err := m.SetStringProperty("region", region); err != nil {
		t.Fatal(err)
	}
	if zone >= 0 {
		if err := m.SetInt32Property("zone", int32(zone)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestIndexCostCeilings pins what a message costs on the filter_scan
// population in evaluations and allocations — counts, not wall time.
func TestIndexCostCeilings(t *testing.T) {
	tp, ranges, zones := scanPopulation(t)
	idx, _ := tp.Index()
	if idx.NumSubscriptions() != 513 || idx.NumGroups() != 512 {
		t.Fatalf("population: %d subscriptions, %d grouped rules", idx.NumSubscriptions(), idx.NumGroups())
	}
	filters := func(subs []*Subscription) []string {
		var out []string
		for _, s := range subs {
			out = append(out, s.Filter.String())
		}
		return out
	}

	// The benchmark's message: outside every range, region 'eu', no zone.
	miss := scanMessage(t, "dev-5000123", "eu", -1)
	subs, evals := idx.Match(miss, nil)
	if evals > 4 {
		t.Errorf("non-matching message cost %d evaluations, want <= 4 (one range bucket, two pivot buckets)", evals)
	}
	if got := filters(subs); len(got) != 1 || got[0] != "TRUE" {
		t.Errorf("non-matching message matched %v, want the unfiltered subscriber only", got)
	}

	// Inside exactly one range and equal to exactly one pivot.
	hit := scanMessage(t, fmt.Sprintf("dev-%d", ranges[100][0]), "us", zones[7])
	subs, evals = idx.Match(hit, nil)
	want := []string{"TRUE", fmt.Sprintf("dev-[%d;%d]", ranges[100][0], ranges[100][1]), fmt.Sprintf("region <> 'eu' AND zone = %d", zones[7])}
	if got := filters(subs); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("matched %v, want %v", got, want)
	}
	if evals > 4 {
		t.Errorf("matching message cost %d evaluations, want <= 4", evals)
	}
	// The nominated selector still decides: same zone, region 'eu'.
	if subs, _ = idx.Match(scanMessage(t, "x", "eu", zones[7]), nil); len(subs) != 1 {
		t.Errorf("pivot candidate with a false conjunct matched: %v", filters(subs))
	}

	dst := make([]*Subscription, 0, 8)
	for _, m := range []*jms.Message{miss, hit} {
		if allocs := testing.AllocsPerRun(100, func() { dst, _ = idx.Match(m, dst[:0]) }); allocs != 0 {
			t.Errorf("Match with a reused dst allocates %.0f times per message, want 0", allocs)
		}
	}
}

// TestIndexNestedRangesCost: a bucket of k fully nested ranges never costs
// more than k evaluations, wherever the message falls.
func TestIndexNestedRangesCost(t *testing.T) {
	const k = 50
	var filters []filter.Filter
	for i := 0; i < k; i++ {
		filters = append(filters, corrID(t, fmt.Sprintf("n[%d;%d]", i, 1000-i)))
	}
	_, tp := indexedTopic(t, filters)
	idx, _ := tp.Index()
	for _, tt := range []struct {
		id      string
		matches int
	}{{"n500", k}, {"n0", 1}, {"n1000", 1}, {"n10", 11}, {"n990", 11}, {"n1001", 0}, {"n-1", 0}, {"n", 0}} {
		ids, evals := matchIDs(idx, scanMessage(t, tt.id, "eu", -1))
		if len(ids) != tt.matches {
			t.Errorf("%s matched %d ranges, want %d", tt.id, len(ids), tt.matches)
		}
		if evals < 1 || evals > k {
			t.Errorf("%s cost %d evaluations for %d nested rules", tt.id, evals, k)
		}
	}
}

// TestIndexGroupedReusedAcrossMembershipChanges: subscribers joining or
// leaving a rule that stays installed do not rebuild the grouped index —
// the next epoch carries it over, and even the older index sees them.
func TestIndexGroupedReusedAcrossMembershipChanges(t *testing.T) {
	r, tp := indexedTopic(t, []filter.Filter{corrID(t, "id[3;9]"), filter.MustProperty("prop = 1"), corrID(t, "dev-*")})
	old, _ := tp.Index()
	var added []*Subscription
	for _, f := range []filter.Filter{corrID(t, "id[3;9]"), filter.MustProperty("prop = 1"), corrID(t, "dev-*")} {
		s, err := r.Subscribe("t", f, nil)
		if err != nil {
			t.Fatal(err)
		}
		added = append(added, s)
	}
	idx, _ := tp.Index()
	if idx == old || idx.grouped != old.grouped {
		t.Fatal("a membership change inside existing rules must publish a new index over the same grouped index")
	}
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID("id5"); err != nil {
		t.Fatal(err)
	}
	if err := m.SetInt32Property("prop", 1); err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*FilterIndex{"new": idx, "old": old} {
		if ids, _ := matchIDs(ix, m); len(ids) != 4 {
			t.Errorf("%s index matched %d subscriptions, want 4", name, len(ids))
		}
	}
	for _, s := range added {
		if err := r.Unsubscribe("t", s.ID); err != nil {
			t.Fatal(err)
		}
	}
	if idx2, _ := tp.Index(); idx2.grouped != old.grouped {
		t.Error("leaving a rule that keeps subscribers rebuilt the grouped index")
	}
	// The last subscriber of a rule leaving does rebuild it.
	sub, err := r.Subscribe("t", corrID(t, "id[10;20]"), nil)
	if err != nil {
		t.Fatal(err)
	}
	idx3, _ := tp.Index()
	if idx3.grouped == old.grouped || idx3.NumGroups() != 4 {
		t.Errorf("a new rule must rebuild the grouped index (NumGroups = %d)", idx3.NumGroups())
	}
	if err := r.Unsubscribe("t", sub.ID); err != nil {
		t.Fatal(err)
	}
	if idx4, _ := tp.Index(); idx4.grouped == idx3.grouped || idx4.NumGroups() != 3 {
		t.Errorf("a retired rule must rebuild the grouped index (NumGroups = %d)", idx4.NumGroups())
	}
}

// TestIndexRangeAffixesOverlap: an ID shorter than prefix+suffix is not in
// the range, and asking does not slice out of bounds (it used to panic the
// dispatch goroutine).
func TestIndexRangeAffixesOverlap(t *testing.T) {
	_, tp := indexedTopic(t, []filter.Filter{corrID(t, "ab[1;2]b")})
	idx, _ := tp.Index()
	for id, want := range map[string]int{"ab": 0, "abb": 0, "b": 0, "": 0, "ab1b": 1, "ab3b": 0} {
		if ids, _ := matchIDs(idx, scanMessage(t, id, "eu", -1)); len(ids) != want {
			t.Errorf("%q matched %d subscriptions, want %d", id, len(ids), want)
		}
	}
}
