package topic

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/jms"
)

// FuzzInternMatch drives the interned, incrementally-maintained filter
// index with an arbitrary subscribe/unsubscribe script and checks the
// metamorphic relation that pins the whole store: for any message, the
// match set produced by Topic.Index must equal a linear scan of
// Topic.Snapshot with freshly compiled (non-interned) filters.
//
// Script grammar, one op per line:
//
//	c:<expr>   subscribe with a correlation-ID filter (exact/glob/range)
//	p:<expr>   subscribe with a JMS selector
//	a          subscribe match-all
//	u<n>       unsubscribe the n-th oldest live subscription (mod count)
//	!          rebuild the index now (interleaves rebuilds with churn)
//
// Lines that fail to compile are skipped, so the fuzzer is free to explore
// expression space without tripping over parse errors.
//
// Every probe message carries `prop` (an int32, the probe's length) and
// then the fuzzed property list, one "<name> <kind> <value>" per line with
// kind i (int64), f (float64), s (string) or b (bool); lines that do not
// parse are skipped.
func FuzzInternMatch(f *testing.F) {
	f.Add("c:#0\nc:#0\nc:#1\na\np:prop = 1\nu0\nc:dev-*", "#0", "")
	f.Add("c:lit\n!\nu0\n!\nc:lit\nc:lit", "lit", "")
	f.Add("p:prop = 1\np:prop = 1\np:prop > 0\na\na\nu1\nu1", "#9", "")
	f.Add("c:id[3;9]\nc:id[3;9]\nc:id*\nu0\n!\nc:id[3;9]", "id5", "")
	f.Add("a\nu0\na\nu0\na", "", "")
	f.Add("c:x\nu9\nc:x\nu0\nu0\nc:x", "x", "")
	// Affixes that overlap in the ID; nested, identical and extreme ranges.
	f.Add("c:ab[1;2]b", "ab", "")
	f.Add("c:n[0;9]\nc:n[2;7]\nc:n[2;7]-x\nc:n[5;5]\n!\nu1\nc:n[-9223372036854775808;9223372036854775807]", "n+5", "")
	f.Add("c:[0;9]\nc:[10;19]", "9223372036854775808", "")
	// Equality pivots: operand order, int against float, ±0, 2^53 and 2^53+1,
	// NaN, a missing property, a property of the wrong kind.
	f.Add("p:x = 3\np:3 = x\np:x = 3.0\np:x = '3'\np:x <> 3 AND y = 1", "", "x f 3\ny i 1")
	f.Add("p:x = 0\np:x = -0.0\np:0.0 = x", "", "x f -0")
	f.Add("p:big = 9007199254740992\np:big = 9007199254740993\np:big = 9007199254740992.0", "", "big i 9007199254740993")
	f.Add("p:x = 1\np:x = x\np:NOT (x = 1)", "", "x f NaN")
	f.Add("p:region <> 'eu' AND zone = 1\np:region = 'eu'\np:zone = 1 OR region = 'eu'", "", "region b true")
	f.Add("p:JMSCorrelationID = 'k' AND prop = 1\np:prop = 1 AND s = 'v'", "k", "s s v")

	f.Fuzz(func(t *testing.T, script, probe, props string) {
		if len(script) > 4096 || len(props) > 512 {
			return
		}
		r := NewRegistry()
		tp, err := r.Configure("t")
		if err != nil {
			t.Fatal(err)
		}
		// specs remembers the source text of every live subscription so the
		// reference scan below can recompile filters from scratch.
		type lineSpec struct {
			id   SubscriptionID
			kind byte
			expr string
		}
		var live []lineSpec
		installed := 0
		for _, line := range strings.Split(script, "\n") {
			if installed > 512 {
				break
			}
			switch {
			case line == "a":
				s, err := r.Subscribe("t", nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, lineSpec{id: s.ID, kind: 'a'})
				installed++
			case line == "!":
				tp.Index()
			case strings.HasPrefix(line, "c:"):
				cf, err := filter.NewCorrelationID(line[2:])
				if err != nil {
					continue
				}
				s, err := r.Subscribe("t", cf, nil)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, lineSpec{id: s.ID, kind: 'c', expr: line[2:]})
				installed++
			case strings.HasPrefix(line, "p:"):
				pf, err := filter.NewProperty(line[2:])
				if err != nil {
					continue
				}
				s, err := r.Subscribe("t", pf, nil)
				if err != nil {
					t.Fatal(err)
				}
				live = append(live, lineSpec{id: s.ID, kind: 'p', expr: line[2:]})
				installed++
			case strings.HasPrefix(line, "u"):
				if len(live) == 0 {
					continue
				}
				n, err := strconv.Atoi(line[1:])
				if err != nil || n < 0 {
					continue
				}
				n %= len(live)
				if err := r.Unsubscribe("t", live[n].id); err != nil {
					t.Fatalf("unsubscribe live sub: %v", err)
				}
				live = append(live[:n], live[n+1:]...)
			}
		}

		if got := r.TotalSubscriptions(); got != len(live) {
			t.Fatalf("TotalSubscriptions = %d, script tracked %d", got, len(live))
		}

		// Probe with the fuzzed correlation ID plus every subscribed exact
		// literal, so exact-map tombstones and revivals get exercised.
		probes := map[string]bool{probe: true, "": true}
		for _, sp := range live {
			if sp.kind == 'c' && len(probes) < 32 {
				probes[sp.expr] = true
			}
		}
		for lit := range probes {
			m := jms.NewMessage("t")
			if err := m.SetCorrelationID(lit); err != nil {
				continue
			}
			if err := m.SetInt32Property("prop", int32(len(lit))); err != nil {
				t.Fatal(err)
			}
			setFuzzedProperties(m, props)

			// Reference: recompile every live filter from its source text and
			// scan linearly — no interning, no index.
			want := map[SubscriptionID]int{}
			for _, sp := range live {
				var ff filter.Filter
				switch sp.kind {
				case 'a':
					ff = filter.All{}
				case 'c':
					cf, err := filter.NewCorrelationID(sp.expr)
					if err != nil {
						t.Fatalf("re-compile %q: %v", sp.expr, err)
					}
					ff = cf
				case 'p':
					pf, err := filter.NewProperty(sp.expr)
					if err != nil {
						t.Fatalf("re-compile %q: %v", sp.expr, err)
					}
					ff = pf
				}
				if ff.Matches(m) {
					want[sp.id]++
				}
			}

			idx, _ := tp.Index()
			got := map[SubscriptionID]int{}
			matched, _ := idx.Match(m, nil)
			for _, s := range matched {
				got[s.ID]++
			}
			for id, n := range got {
				if n != 1 {
					t.Fatalf("probe %q: subscription %d matched %d times", lit, id, n)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("probe %q: index matched %d, linear reference %d", lit, len(got), len(want))
			}
			for id := range want {
				if got[id] == 0 {
					t.Fatalf("probe %q: index missed subscription %d", lit, id)
				}
			}
		}
	})
}

// setFuzzedProperties applies FuzzInternMatch's property list to m; see the
// grammar there. Invalid names and values are skipped.
func setFuzzedProperties(m *jms.Message, props string) {
	for n, line := range strings.Split(props, "\n") {
		if n == 8 {
			return
		}
		name, rest, _ := strings.Cut(line, " ")
		kind, val, _ := strings.Cut(rest, " ")
		switch kind {
		case "i":
			if v, err := strconv.ParseInt(val, 10, 64); err == nil {
				_ = m.SetInt64Property(name, v) // an invalid name leaves the message as it was
			}
		case "f":
			if v, err := strconv.ParseFloat(val, 64); err == nil {
				_ = m.SetFloat64Property(name, v)
			}
		case "s":
			_ = m.SetStringProperty(name, val)
		case "b":
			_ = m.SetBoolProperty(name, val == "true")
		}
	}
}
