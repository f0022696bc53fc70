package selector

import (
	"math"
	"testing"

	"repro/internal/jms"
)

func TestEqualityPivot(t *testing.T) {
	str := func(s string) PivotKey { return PivotKey{s: s} }
	num := func(f float64) PivotKey { return PivotKey{num: true, f: f} }
	tests := []struct {
		src   string
		ident string
		key   PivotKey
	}{
		{src: "region = 'eu'", ident: "region", key: str("eu")},
		{src: "'eu' = region", ident: "region", key: str("eu")},
		{src: "region = ''", ident: "region", key: str("")},
		{src: "qty = 3", ident: "qty", key: num(3)},
		{src: "3 = qty", ident: "qty", key: num(3)},
		{src: "qty = 3.0", ident: "qty", key: num(3)},
		{src: "qty = -5", ident: "qty", key: num(-5)},
		{src: "qty = 1 + 2", ident: "qty", key: num(3)}, // folded
		{src: "qty = -0.0", ident: "qty", key: num(0)},  // ±0 are one key
		{src: "big = 9007199254740993", ident: "big", key: num(1 << 53)},
		{src: "JMSCorrelationID = 'x'", ident: "JMSCorrelationID", key: str("x")},
		{src: "region <> 'eu' AND zone = 7", ident: "zone", key: num(7)},
		{src: "a > 1 AND (b LIKE 'x%' AND c = 'v') AND d = 2", ident: "c", key: str("v")},
		{src: "a = 1 AND a = 2", ident: "a", key: num(1)},
		{src: "a = 1 AND (b = 2 OR c = 3)", ident: "a", key: num(1)},
		{src: "TRUE AND a = 1", ident: "a", key: num(1)}, // folded to a = 1

		// No pivot: the selector can be TRUE without any one equality.
		{src: "qty <> 3"}, {src: "qty > 3"}, {src: "qty >= 3 AND qty <= 3"},
		{src: "a = 1 OR b = 2"}, {src: "NOT (a = 1)"}, {src: "NOT (a <> 1)"},
		{src: "a LIKE 'x'"}, {src: "a IN ('x')"}, {src: "a BETWEEN 1 AND 1"}, {src: "a IS NULL"},
		{src: "a = b"}, {src: "a + 1 = 2"}, {src: "-a = 2"}, {src: "a = TRUE"}, {src: "a"},
		{src: "(a = 1 OR b = 2) AND c > 0"}, {src: "a = 1 / 0"},
	}
	for _, tt := range tests {
		n, err := Parse(tt.src)
		if err != nil {
			t.Fatalf("%q: %v", tt.src, err)
		}
		ident, key, ok := EqualityPivot(Fold(n))
		if ok != (tt.ident != "") || ident != tt.ident || key != tt.key {
			t.Errorf("EqualityPivot(%q) = %q, %+v, %v; want %q, %+v", tt.src, ident, key, ok, tt.ident, tt.key)
		}
	}
}

// TestPivotKeyIsNecessaryForEquality: whenever `ident = literal` evaluates
// to TRUE the message's key equals the literal's, for every pairing of
// int/float/string/bool/missing values and literals including ±0, NaN and
// the integers float64 cannot tell apart.
func TestPivotKeyIsNecessaryForEquality(t *testing.T) {
	negZero := math.Copysign(0, -1)
	values := []func(*jms.Message) error{
		func(*jms.Message) error { return nil }, // missing
		func(m *jms.Message) error { return m.SetInt64Property("x", 0) },
		func(m *jms.Message) error { return m.SetInt32Property("x", 3) },
		func(m *jms.Message) error { return m.SetInt64Property("x", 1<<53) },
		func(m *jms.Message) error { return m.SetInt64Property("x", 1<<53+1) },
		func(m *jms.Message) error { return m.SetFloat64Property("x", 0) },
		func(m *jms.Message) error { return m.SetFloat64Property("x", negZero) },
		func(m *jms.Message) error { return m.SetFloat64Property("x", 3) },
		func(m *jms.Message) error { return m.SetFloat64Property("x", 2.5) },
		func(m *jms.Message) error { return m.SetFloat64Property("x", 1<<53) },
		func(m *jms.Message) error { return m.SetFloat64Property("x", math.NaN()) },
		func(m *jms.Message) error { return m.SetFloat64Property("x", math.Inf(1)) },
		func(m *jms.Message) error { return m.SetStringProperty("x", "3") },
		func(m *jms.Message) error { return m.SetStringProperty("x", "") },
		func(m *jms.Message) error { return m.SetBoolProperty("x", true) },
	}
	literals := []Node{
		&IntLit{Value: 0}, &IntLit{Value: 3}, &IntLit{Value: 1 << 53}, &IntLit{Value: 1<<53 + 1},
		&FloatLit{Value: 0}, &FloatLit{Value: negZero}, &FloatLit{Value: 3}, &FloatLit{Value: 2.5},
		&FloatLit{Value: 1 << 53}, &FloatLit{Value: math.NaN()}, &FloatLit{Value: math.Inf(1)},
		&StringLit{Value: "3"}, &StringLit{Value: ""},
	}
	trues := 0
	for vi, set := range values {
		m := jms.NewMessage("t")
		if err := set(m); err != nil {
			t.Fatal(err)
		}
		for _, lit := range literals {
			for _, eq := range []*Binary{{Op: OpEq, L: &Ident{Name: "x"}, R: lit}, {Op: OpEq, L: lit, R: &Ident{Name: "x"}}} {
				ident, want, ok := EqualityPivot(eq)
				if !ok || ident != "x" {
					t.Fatalf("%s: no pivot", eq)
				}
				got, present := PivotKeyOf("x", m)
				if Eval(eq, m) == True {
					trues++
					if !present || got != want {
						t.Errorf("value #%d: %s is TRUE but the message's key %+v (present %v) is not the literal's %+v", vi, eq, got, present, want)
					}
				}
			}
		}
	}
	if trues < 30 {
		t.Fatalf("only %d TRUE comparisons — the table no longer exercises the property", trues)
	}
}
