package filter

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/jms"
)

// FuzzCorrelationIDMatch feeds any expression that compiles and any
// correlation ID to Matches: it must not panic, and a range rule's verdict
// must equal an independent reference — cut the prefix, then the suffix off
// what is left, read the rest as an arbitrary-precision decimal, compare.
func FuzzCorrelationIDMatch(f *testing.F) {
	f.Add("ab[1;2]b", "ab")
	f.Add("ab[1;2]b", "ab1b")
	f.Add("dev-[100;200]-eu", "dev-150-eu")
	f.Add("[-5;5]", "-3")
	f.Add("[0;9]", "+5")
	f.Add("[0;9]", "007")
	f.Add("[0;9223372036854775807]", "9223372036854775808")
	f.Add("x[ 1 ; 2 ]", "x1")
	f.Add("*a*a*a*a*b", "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa")
	f.Add("a?c", "abc")
	f.Add("lit", "lit")

	f.Fuzz(func(t *testing.T, expr, id string) {
		cf, err := NewCorrelationID(expr)
		if err != nil {
			return
		}
		m := jms.NewMessage("t")
		if err := m.SetCorrelationID(id); err != nil {
			return
		}
		got := cf.Matches(m)

		prefix, suffix, lo, hi, ok := cf.Range()
		if !ok {
			return
		}
		want := false
		if rest, cut := strings.CutPrefix(id, prefix); cut {
			if mid, cut := strings.CutSuffix(rest, suffix); cut {
				if n, isNumber := new(big.Int).SetString(mid, 10); isNumber {
					want = n.Cmp(big.NewInt(lo)) >= 0 && n.Cmp(big.NewInt(hi)) <= 0
				}
			}
		}
		if got != want {
			t.Fatalf("%q matches %q = %v, reference says %v (prefix %q suffix %q lo %d hi %d)", expr, id, got, want, prefix, suffix, lo, hi)
		}
	})
}
