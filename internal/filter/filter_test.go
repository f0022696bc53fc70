package filter

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/jms"
)

func msgWithCorrID(t testing.TB, id string) *jms.Message {
	t.Helper()
	m := jms.NewMessage("t")
	if err := m.SetCorrelationID(id); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestAllMatchesEverything(t *testing.T) {
	f := All{}
	if !f.Matches(jms.NewMessage("t")) {
		t.Error("All must match any message")
	}
	if f.Kind() != KindTopic {
		t.Errorf("Kind = %v, want KindTopic", f.Kind())
	}
	if f.String() != "TRUE" {
		t.Errorf("String = %q", f.String())
	}
}

func TestCorrelationIDExact(t *testing.T) {
	f, err := NewCorrelationID("#0")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(msgWithCorrID(t, "#0")) {
		t.Error("exact match failed")
	}
	if f.Matches(msgWithCorrID(t, "#1")) {
		t.Error("exact mismatch matched")
	}
	if f.Matches(jms.NewMessage("t")) {
		t.Error("empty correlation ID matched non-empty filter")
	}
	if f.Kind() != KindCorrelationID {
		t.Errorf("Kind = %v", f.Kind())
	}
	if f.String() != "#0" {
		t.Errorf("String = %q", f.String())
	}
}

func TestCorrelationIDRange(t *testing.T) {
	// The paper's example: wildcard filtering in the form of ranges like
	// [7;13].
	f, err := NewCorrelationID("[7;13]")
	if err != nil {
		t.Fatal(err)
	}
	for i := 7; i <= 13; i++ {
		if !f.Matches(msgWithCorrID(t, strconv.Itoa(i))) {
			t.Errorf("range [7;13] should match %d", i)
		}
	}
	for _, id := range []string{"6", "14", "-1", "x", "", "7x"} {
		if f.Matches(msgWithCorrID(t, id)) {
			t.Errorf("range [7;13] should not match %q", id)
		}
	}
}

func TestCorrelationIDRangeWithAffixes(t *testing.T) {
	f, err := NewCorrelationID("dev-[100;200]-eu")
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		id   string
		want bool
	}{
		{id: "dev-100-eu", want: true},
		{id: "dev-150-eu", want: true},
		{id: "dev-200-eu", want: true},
		{id: "dev-99-eu", want: false},
		{id: "dev-201-eu", want: false},
		{id: "dev-150-us", want: false},
		{id: "x-150-eu", want: false},
		{id: "dev--eu", want: false},
	}
	for _, tt := range tests {
		if got := f.Matches(msgWithCorrID(t, tt.id)); got != tt.want {
			t.Errorf("Matches(%q) = %v, want %v", tt.id, got, tt.want)
		}
	}
}

// TestCorrelationIDRangeAffixesOverlap: prefix and suffix may both be found
// in an ID too short to hold them one after the other. That is a mismatch,
// not a slice out of bounds.
func TestCorrelationIDRangeAffixesOverlap(t *testing.T) {
	f, err := NewCorrelationID("ab[1;2]b")
	if err != nil {
		t.Fatal(err)
	}
	for id, want := range map[string]bool{"ab": false, "abb": false, "b": false, "": false, "ab1b": true, "ab2b": true, "ab3b": false} {
		if got := f.Matches(msgWithCorrID(t, id)); got != want {
			t.Errorf("Matches(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestRangeNumber pins what counts as the number of a range rule.
func TestRangeNumber(t *testing.T) {
	tests := []struct {
		id   string
		want int64
		ok   bool
	}{
		{id: "p5s", want: 5, ok: true},
		{id: "p+5s", want: 5, ok: true},
		{id: "p-3s", want: -3, ok: true},
		{id: "p007s", want: 7, ok: true},
		{id: "p9223372036854775807s", want: 9223372036854775807, ok: true},
		{id: "p9223372036854775808s"}, // overflow
		{id: "ps"}, {id: "p"}, {id: "s"}, {id: ""}, {id: "p 5s"}, {id: "p5xs"}, {id: "q5s"}, {id: "p5t"},
	}
	for _, tt := range tests {
		if got, ok := RangeNumber(tt.id, "p", "s"); ok != tt.ok || ok && got != tt.want {
			t.Errorf("RangeNumber(%q) = %d, %v, want %d, %v", tt.id, got, ok, tt.want, tt.ok)
		}
	}
}

func TestCorrelationIDRangeNegativeBounds(t *testing.T) {
	f, err := NewCorrelationID("[-5;5]")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Matches(msgWithCorrID(t, "-3")) {
		t.Error("[-5;5] should match -3")
	}
	if f.Matches(msgWithCorrID(t, "-6")) {
		t.Error("[-5;5] should not match -6")
	}
}

func TestCorrelationIDBadRanges(t *testing.T) {
	for _, expr := range []string{"[7]", "[a;b]", "[1;", "]1;2[", "[13;7]", "[;]", "[1;2;3]x]"} {
		t.Run(expr, func(t *testing.T) {
			_, err := NewCorrelationID(expr)
			if !errors.Is(err, ErrBadRange) {
				t.Errorf("NewCorrelationID(%q) err = %v, want ErrBadRange", expr, err)
			}
		})
	}
}

func TestCorrelationIDTooLong(t *testing.T) {
	long := make([]byte, jms.MaxCorrelationIDLen+1)
	for i := range long {
		long[i] = 'a'
	}
	if _, err := NewCorrelationID(string(long)); err == nil {
		t.Error("over-long expression accepted")
	}
}

func TestCorrelationIDGlob(t *testing.T) {
	tests := []struct {
		expr string
		id   string
		want bool
	}{
		{expr: "dev-*", id: "dev-1", want: true},
		{expr: "dev-*", id: "dev-", want: true},
		{expr: "dev-*", id: "de", want: false},
		{expr: "*-eu", id: "dev-1-eu", want: true},
		{expr: "*-eu", id: "dev-1-us", want: false},
		{expr: "a?c", id: "abc", want: true},
		{expr: "a?c", id: "ac", want: false},
		{expr: "*", id: "", want: true},
		{expr: "*", id: "anything", want: true},
		{expr: "a*b*c", id: "aXbYc", want: true},
		{expr: "a*b*c", id: "acb", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.expr+"/"+tt.id, func(t *testing.T) {
			f, err := NewCorrelationID(tt.expr)
			if err != nil {
				t.Fatal(err)
			}
			if got := f.Matches(msgWithCorrID(t, tt.id)); got != tt.want {
				t.Errorf("Matches(%q ~ %q) = %v, want %v", tt.id, tt.expr, got, tt.want)
			}
		})
	}
}

// TestCorrelationIDGlobManyWildcards: matching cost is bounded by
// len(pattern)·len(id) whatever the number of wildcards. A matcher that
// retries every split of every '*' does not return from this within the
// test timeout (3 wildcards against 100 bytes already took 28 ms).
func TestCorrelationIDGlobManyWildcards(t *testing.T) {
	id := strings.Repeat("a", jms.MaxCorrelationIDLen)
	miss, err := NewCorrelationID(strings.Repeat("*a", 40) + "*b")
	if err != nil {
		t.Fatal(err)
	}
	if miss.Matches(msgWithCorrID(t, id)) {
		t.Error("pattern ending in b matched an ID of a's")
	}
	hit, err := NewCorrelationID(strings.Repeat("*a", 40) + "*?")
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Matches(msgWithCorrID(t, id)) {
		t.Error("41 single characters between wildcards must fit into 128 a's")
	}
}

// TestCorrelationIDRangeProperty: for random in-range values the filter
// matches, for out-of-range values it does not.
func TestCorrelationIDRangeProperty(t *testing.T) {
	f, err := NewCorrelationID("[0;1000]")
	if err != nil {
		t.Fatal(err)
	}
	check := func(n int16) bool {
		m := jms.NewMessage("t")
		if err := m.SetCorrelationID(strconv.Itoa(int(n))); err != nil {
			return false
		}
		want := n >= 0 && n <= 1000
		return f.Matches(m) == want
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyFilter(t *testing.T) {
	f, err := NewProperty("prop = 0")
	if err != nil {
		t.Fatal(err)
	}
	m := jms.NewMessage("t")
	if err := m.SetInt32Property("prop", 0); err != nil {
		t.Fatal(err)
	}
	if !f.Matches(m) {
		t.Error("prop=0 should match")
	}
	if err := m.SetInt32Property("prop", 1); err != nil {
		t.Fatal(err)
	}
	if f.Matches(m) {
		t.Error("prop=1 should not match")
	}
	if f.Kind() != KindProperty {
		t.Errorf("Kind = %v", f.Kind())
	}
	if f.String() != "prop = 0" {
		t.Errorf("String = %q", f.String())
	}
	if f.Selector() == nil {
		t.Error("Selector() = nil")
	}
}

func TestPropertyFilterUnknownRejects(t *testing.T) {
	f := MustProperty("missing = 1")
	if f.Matches(jms.NewMessage("t")) {
		t.Error("UNKNOWN must reject")
	}
}

func TestNewPropertyError(t *testing.T) {
	if _, err := NewProperty("prop ="); err == nil {
		t.Error("invalid selector accepted")
	}
}

func TestMustPropertyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustProperty did not panic")
		}
	}()
	MustProperty("bad =")
}

func TestAndOrComposite(t *testing.T) {
	corr, err := NewCorrelationID("#0")
	if err != nil {
		t.Fatal(err)
	}
	prop := MustProperty("region = 'EU'")

	and, err := NewAnd(corr, prop)
	if err != nil {
		t.Fatal(err)
	}
	or, err := NewOr(corr, prop)
	if err != nil {
		t.Fatal(err)
	}

	mBoth := msgWithCorrID(t, "#0")
	if err := mBoth.SetStringProperty("region", "EU"); err != nil {
		t.Fatal(err)
	}
	mCorrOnly := msgWithCorrID(t, "#0")
	mPropOnly := jms.NewMessage("t")
	if err := mPropOnly.SetStringProperty("region", "EU"); err != nil {
		t.Fatal(err)
	}
	mNeither := jms.NewMessage("t")

	tests := []struct {
		name            string
		m               *jms.Message
		wantAnd, wantOr bool
	}{
		{name: "both", m: mBoth, wantAnd: true, wantOr: true},
		{name: "corr only", m: mCorrOnly, wantAnd: false, wantOr: true},
		{name: "prop only", m: mPropOnly, wantAnd: false, wantOr: true},
		{name: "neither", m: mNeither, wantAnd: false, wantOr: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := and.Matches(tt.m); got != tt.wantAnd {
				t.Errorf("AND = %v, want %v", got, tt.wantAnd)
			}
			if got := or.Matches(tt.m); got != tt.wantOr {
				t.Errorf("OR = %v, want %v", got, tt.wantOr)
			}
		})
	}

	if and.Kind() != KindComposite || or.Kind() != KindComposite {
		t.Error("composite Kind mismatch")
	}
	if and.String() != "(#0) AND (region = 'EU')" {
		t.Errorf("AND String = %q", and.String())
	}
	if or.String() != "(#0) OR (region = 'EU')" {
		t.Errorf("OR String = %q", or.String())
	}
}

func TestEmptyComposites(t *testing.T) {
	if _, err := NewAnd(); err == nil {
		t.Error("empty AND accepted")
	}
	if _, err := NewOr(); err == nil {
		t.Error("empty OR accepted")
	}
}

func TestCompositeCopiesChildren(t *testing.T) {
	corr, err := NewCorrelationID("#0")
	if err != nil {
		t.Fatal(err)
	}
	children := []Filter{corr}
	and, err := NewAnd(children...)
	if err != nil {
		t.Fatal(err)
	}
	children[0] = All{} // must not affect the composite
	if and.Matches(msgWithCorrID(t, "#1")) {
		t.Error("composite shares caller's slice")
	}
}

func TestKindString(t *testing.T) {
	if KindTopic.String() != "topic" || KindCorrelationID.String() != "correlationID" ||
		KindProperty.String() != "property" || KindComposite.String() != "composite" {
		t.Error("Kind.String mismatch")
	}
	if Kind(99).String() != "Kind(99)" {
		t.Error("unknown Kind.String mismatch")
	}
}

func BenchmarkCorrelationIDExact(b *testing.B) {
	f, err := NewCorrelationID("#0")
	if err != nil {
		b.Fatal(err)
	}
	m := msgWithCorrID(b, "#0")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Matches(m) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkCorrelationIDRange(b *testing.B) {
	f, err := NewCorrelationID("[0;1000000]")
	if err != nil {
		b.Fatal(err)
	}
	m := msgWithCorrID(b, "512345")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Matches(m) {
			b.Fatal("no match")
		}
	}
}

func BenchmarkPropertyFilter(b *testing.B) {
	f := MustProperty("prop = 0")
	m := jms.NewMessage("t")
	if err := m.SetInt32Property("prop", 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.Matches(m) {
			b.Fatal("no match")
		}
	}
}

func ExampleNewCorrelationID() {
	f, _ := NewCorrelationID("[7;13]")
	m := jms.NewMessage("updates")
	_ = m.SetCorrelationID("9")
	fmt.Println(f.Matches(m))
	// Output: true
}
