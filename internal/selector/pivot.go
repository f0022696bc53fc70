package selector

import "repro/internal/jms"

// PivotKey is the hash key of one side of an `ident = literal` comparison.
// Numbers are keyed by their float64 promotion: the evaluator's `=` is TRUE
// only when both sides promote to the same float64 (int = int compares
// exactly, which is stronger), so equal keys are a necessary condition for
// the comparison in all four int/float pairings. Go's map equality on
// float64 keys makes +0 and -0 one key and NaN equal to nothing, as `=`
// does.
type PivotKey struct {
	num bool
	f   float64
	s   string
}

func pivotKey(v value) (PivotKey, bool) {
	switch v.kind {
	case kindInt, kindFloat:
		return PivotKey{num: true, f: v.asFloat()}, true
	case kindString:
		return PivotKey{s: v.s}, true
	default:
		return PivotKey{}, false
	}
}

// EqualityPivot finds the first conjunct of the form `ident = literal`
// (either operand order; string, int or float literal) among the top-level
// AND conjuncts of a folded selector. A selector with such a conjunct can be
// TRUE only for messages whose PivotKeyOf(ident) equals key, so an index
// may hash it under key and run the full selector on the candidates only.
// Conjuncts under OR or NOT are not looked at.
func EqualityPivot(n Node) (ident string, key PivotKey, ok bool) {
	b, isBinary := n.(*Binary)
	if !isBinary {
		return "", PivotKey{}, false
	}
	switch b.Op {
	case OpAnd:
		if ident, key, ok = EqualityPivot(b.L); ok {
			return ident, key, true
		}
		return EqualityPivot(b.R)
	case OpEq:
		id, lit := b.L, b.R
		if _, isIdent := id.(*Ident); !isIdent {
			id, lit = lit, id
		}
		x, isIdent := id.(*Ident)
		if !isIdent {
			break
		}
		switch lit.(type) {
		case *IntLit, *FloatLit, *StringLit:
			key, ok = pivotKey(evalValue(lit, nil)) // literals never read the message
			return x.Name, key, ok
		}
	}
	return "", PivotKey{}, false
}

// PivotKeyOf resolves ident against m through the evaluator's own lookup
// and returns its key; ok is false when the value is NULL or of a kind no
// `ident = literal` pivot can equal (boolean).
func PivotKeyOf(ident string, m *jms.Message) (PivotKey, bool) {
	return pivotKey(lookup(ident, m))
}
