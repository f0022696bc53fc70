package selector

import (
	"fmt"
	"strings"
)

// wildOpKind is the kind of a compiled wildcard pattern element.
type wildOpKind int

const (
	wildLit  wildOpKind = iota + 1 // match a literal run
	wildOne                        // exactly one character
	wildMany                       // zero or more characters
)

type wildOp struct {
	kind wildOpKind
	lit  string
}

// Wildcard is a compiled wildcard pattern: SQL LIKE's '%' / '_' here, the
// correlation-ID glob's '*' / '?' in package filter. It must match the
// entire string.
type Wildcard []wildOp

// CompileWildcard compiles a pattern in which many matches any sequence of
// characters and one exactly one; esc (if non-zero) escapes many, one or
// itself.
func CompileWildcard(pattern string, many, one, esc byte) (Wildcard, error) {
	var prog Wildcard
	var lit []byte
	flush := func() {
		if len(lit) > 0 {
			prog = append(prog, wildOp{kind: wildLit, lit: string(lit)})
			lit = lit[:0]
		}
	}
	for i := 0; i < len(pattern); i++ {
		b := pattern[i]
		switch {
		case esc != 0 && b == esc:
			if i+1 >= len(pattern) {
				return nil, fmt.Errorf("dangling escape character at end of LIKE pattern")
			}
			i++
			lit = append(lit, pattern[i])
		case b == many:
			flush()
			// Collapse consecutive many-wildcards into one.
			if len(prog) == 0 || prog[len(prog)-1].kind != wildMany {
				prog = append(prog, wildOp{kind: wildMany})
			}
		case b == one:
			flush()
			prog = append(prog, wildOp{kind: wildOne})
		default:
			lit = append(lit, b)
		}
	}
	flush()
	return prog, nil
}

// compileLike compiles a SQL LIKE pattern with optional escape character.
func compileLike(pattern string, esc byte) (Wildcard, error) {
	return CompileWildcard(pattern, '%', '_', esc)
}

// Match reports whether s matches the compiled pattern. It keeps a single
// backtrack point — the ops after the last many-wildcard passed, and where
// in s they are being tried — so the cost is O(len(pattern)·len(s)) for any
// number of wildcards: an earlier wildcard never needs to give back what it
// took, because the last one can absorb the same bytes.
func (prog Wildcard) Match(s string) bool {
	pi, si := 0, 0
	resume, mark := -1, 0
	for pi < len(prog) || si < len(s) {
		if pi < len(prog) {
			switch op := prog[pi]; {
			case op.kind == wildMany:
				pi++
				if pi == len(prog) {
					return true // a trailing wildcard takes the rest
				}
				resume, mark = pi, si
				continue
			case op.kind == wildOne && si < len(s):
				pi++
				si++
				continue
			case op.kind == wildLit && strings.HasPrefix(s[si:], op.lit):
				pi++
				si += len(op.lit)
				continue
			}
		}
		if resume < 0 || mark >= len(s) {
			return false
		}
		mark++
		pi, si = resume, mark
	}
	return true
}
