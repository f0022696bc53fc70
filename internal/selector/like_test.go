package selector

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustCompile(t *testing.T, pattern string, esc byte) Wildcard {
	t.Helper()
	prog, err := compileLike(pattern, esc)
	if err != nil {
		t.Fatalf("compileLike(%q, %q): %v", pattern, esc, err)
	}
	return prog
}

func TestLikeMatch(t *testing.T) {
	tests := []struct {
		pattern string
		esc     byte
		input   string
		want    bool
	}{
		{pattern: "abc", input: "abc", want: true},
		{pattern: "abc", input: "abcd", want: false},
		{pattern: "abc", input: "ab", want: false},
		{pattern: "", input: "", want: true},
		{pattern: "", input: "x", want: false},
		{pattern: "%", input: "", want: true},
		{pattern: "%", input: "anything", want: true},
		{pattern: "a%", input: "a", want: true},
		{pattern: "a%", input: "abc", want: true},
		{pattern: "a%", input: "ba", want: false},
		{pattern: "%a", input: "za", want: true},
		{pattern: "%a", input: "az", want: false},
		{pattern: "a%b", input: "ab", want: true},
		{pattern: "a%b", input: "aXYZb", want: true},
		{pattern: "a%b", input: "aXbY", want: false},
		{pattern: "_", input: "x", want: true},
		{pattern: "_", input: "", want: false},
		{pattern: "_", input: "xy", want: false},
		{pattern: "a_c", input: "abc", want: true},
		{pattern: "a_c", input: "ac", want: false},
		{pattern: "%_%", input: "x", want: true},
		{pattern: "%_%", input: "", want: false},
		{pattern: "%%", input: "abc", want: true},
		{pattern: "a%c%e", input: "abcde", want: true},
		{pattern: "a%c%e", input: "ace", want: true},
		{pattern: "a%c%e", input: "aec", want: false},
		// Escapes.
		{pattern: "50\\%", esc: '\\', input: "50%", want: true},
		{pattern: "50\\%", esc: '\\', input: "50x", want: false},
		{pattern: "a\\_c", esc: '\\', input: "a_c", want: true},
		{pattern: "a\\_c", esc: '\\', input: "abc", want: false},
		{pattern: "a\\\\c", esc: '\\', input: "a\\c", want: true},
		// Non-backslash escape char.
		{pattern: "a#%b", esc: '#', input: "a%b", want: true},
		{pattern: "a#%b", esc: '#', input: "axb", want: false},
	}
	for _, tt := range tests {
		name := tt.pattern + "/" + tt.input
		t.Run(name, func(t *testing.T) {
			prog := mustCompile(t, tt.pattern, tt.esc)
			if got := prog.Match(tt.input); got != tt.want {
				t.Errorf("match(%q ~ %q) = %v, want %v", tt.input, tt.pattern, got, tt.want)
			}
		})
	}
}

func TestCompileLikeDanglingEscape(t *testing.T) {
	if _, err := compileLike("abc\\", '\\'); err == nil {
		t.Error("dangling escape accepted")
	}
}

func TestCompileLikeCollapsesPercents(t *testing.T) {
	prog := mustCompile(t, "a%%%b", 0)
	many := 0
	for _, op := range prog {
		if op.kind == wildMany {
			many++
		}
	}
	if many != 1 {
		t.Errorf("got %d wildMany ops, want 1 (consecutive %% must collapse)", many)
	}
}

// TestLikeLiteralProperty: a pattern with no wildcards matches exactly the
// strings equal to it.
func TestLikeLiteralProperty(t *testing.T) {
	f := func(pattern, input string) bool {
		if strings.ContainsAny(pattern, "%_") {
			return true
		}
		prog, err := compileLike(pattern, 0)
		if err != nil {
			return false
		}
		return prog.Match(input) == (pattern == input)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLikePercentPrefixProperty: "<lit>%" matches exactly the strings with
// that literal prefix.
func TestLikePercentPrefixProperty(t *testing.T) {
	f := func(lit, input string) bool {
		if strings.ContainsAny(lit, "%_") {
			return true
		}
		prog, err := compileLike(lit+"%", 0)
		if err != nil {
			return false
		}
		return prog.Match(input) == strings.HasPrefix(input, lit)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestLikeUnderscoreLengthProperty: a pattern of n underscores matches
// exactly the byte strings of length n.
func TestLikeUnderscoreLengthProperty(t *testing.T) {
	for n := 0; n <= 5; n++ {
		prog := mustCompile(t, strings.Repeat("_", n), 0)
		for l := 0; l <= 7; l++ {
			input := strings.Repeat("x", l)
			if got := prog.Match(input); got != (l == n) {
				t.Errorf("%d underscores vs len %d: match=%v", n, l, got)
			}
		}
	}
}

func BenchmarkLikeMatch(b *testing.B) {
	prog, err := compileLike("user-%-device-_", 0)
	if err != nil {
		b.Fatal(err)
	}
	input := "user-12345-device-7"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !prog.Match(input) {
			b.Fatal("no match")
		}
	}
}

// backtrackingMatch is the obvious matcher Match replaced: try every split
// of every many-wildcard. Exponential, so only fit for short inputs — which
// is all a reference needs.
func backtrackingMatch(prog Wildcard, s string) bool {
	if len(prog) == 0 {
		return s == ""
	}
	switch op := prog[0]; op.kind {
	case wildLit:
		return strings.HasPrefix(s, op.lit) && backtrackingMatch(prog[1:], s[len(op.lit):])
	case wildOne:
		return s != "" && backtrackingMatch(prog[1:], s[1:])
	default:
		for i := 0; i <= len(s); i++ {
			if backtrackingMatch(prog[1:], s[i:]) {
				return true
			}
		}
		return false
	}
}

// TestWildcardAgreesWithBacktracking: the single-backtrack-point matcher
// accepts exactly what exhaustive backtracking accepts, over every pattern
// and input up to a small length from an alphabet small enough to collide.
func TestWildcardAgreesWithBacktracking(t *testing.T) {
	// words returns every word of up to n letters, each once.
	var words func(alphabet string, n int) []string
	words = func(alphabet string, n int) []string {
		out := []string{""}
		if n == 0 {
			return out
		}
		for _, w := range words(alphabet, n-1) {
			for _, c := range alphabet {
				out = append(out, w+string(c))
			}
		}
		return out
	}
	inputs := words("ab", 6)
	for _, pattern := range words("ab%_", 5) {
		prog := mustCompile(t, pattern, 0)
		for _, in := range inputs {
			if got, want := prog.Match(in), backtrackingMatch(prog, in); got != want {
				t.Fatalf("%q LIKE %q = %v, backtracking reference says %v", in, pattern, got, want)
			}
		}
	}
}

// TestWildcardManyWildcardsIsPolynomial: 40 wildcards against 128 bytes
// return; exhaustive backtracking would not within any test timeout.
func TestWildcardManyWildcardsIsPolynomial(t *testing.T) {
	s := strings.Repeat("a", 128)
	if mustCompile(t, strings.Repeat("%a", 40)+"%b", 0).Match(s) {
		t.Error("pattern ending in b matched a string of a's")
	}
	if !mustCompile(t, strings.Repeat("%a", 40)+"%_", 0).Match(s) {
		t.Error("41 single characters between wildcards must fit into 128 a's")
	}
}
