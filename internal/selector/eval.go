package selector

import (
	"fmt"

	"repro/internal/jms"
)

// Tri is SQL three-valued logic: TRUE, FALSE or UNKNOWN. A selector accepts
// a message only when it evaluates to TRUE; both FALSE and UNKNOWN reject,
// as required by the JMS specification.
type Tri int

// Three-valued logic constants.
const (
	False Tri = iota
	True
	Unknown
)

// String returns the SQL name of the truth value.
func (t Tri) String() string {
	switch t {
	case True:
		return "TRUE"
	case False:
		return "FALSE"
	default:
		return "UNKNOWN"
	}
}

func triAnd(a, b Tri) Tri {
	if a == False || b == False {
		return False
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return True
}

func triOr(a, b Tri) Tri {
	if a == True || b == True {
		return True
	}
	if a == Unknown || b == Unknown {
		return Unknown
	}
	return False
}

func triNot(a Tri) Tri {
	switch a {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// valueKind is the runtime type of an evaluated subexpression.
type valueKind int

const (
	kindNull valueKind = iota
	kindBool
	kindInt
	kindFloat
	kindString
)

// value is the runtime value of a subexpression during evaluation.
type value struct {
	kind valueKind
	b    bool
	i    int64
	f    float64
	s    string
}

var nullValue = value{kind: kindNull}

// Eval evaluates the selector AST against a message with three-valued
// logic. A missing property evaluates to NULL, which propagates to UNKNOWN
// through comparisons per SQL semantics.
func Eval(n Node, m *jms.Message) Tri {
	return evalBool(n, m)
}

// Matches reports whether the message satisfies the selector, i.e. whether
// Eval returns TRUE.
func Matches(n Node, m *jms.Message) bool {
	return Eval(n, m) == True
}

func evalBool(n Node, m *jms.Message) Tri {
	switch x := n.(type) {
	case *BoolLit:
		if x.Value {
			return True
		}
		return False

	case *Ident:
		v := lookup(x.Name, m)
		switch v.kind {
		case kindBool:
			if v.b {
				return True
			}
			return False
		case kindNull:
			return Unknown
		default:
			// Non-boolean property in boolean position: UNKNOWN.
			return Unknown
		}

	case *Not:
		return triNot(evalBool(x.X, m))

	case *Binary:
		switch x.Op {
		case OpAnd:
			// Short-circuit: FALSE AND anything = FALSE.
			l := evalBool(x.L, m)
			if l == False {
				return False
			}
			return triAnd(l, evalBool(x.R, m))
		case OpOr:
			l := evalBool(x.L, m)
			if l == True {
				return True
			}
			return triOr(l, evalBool(x.R, m))
		case OpEq, OpNeq, OpLt, OpLeq, OpGt, OpGeq:
			return evalComparison(x, m)
		default:
			// Arithmetic in boolean position cannot be TRUE.
			return Unknown
		}

	case *Between:
		v := evalValue(x.X, m)
		lo := evalValue(x.Lo, m)
		hi := evalValue(x.Hi, m)
		geq := compareNumeric(v, lo, OpGeq)
		leq := compareNumeric(v, hi, OpLeq)
		res := triAnd(geq, leq)
		if x.Negate {
			return triNot(res)
		}
		return res

	case *In:
		v := lookup(x.X.Name, m)
		if v.kind == kindNull {
			return Unknown
		}
		if v.kind != kindString {
			return Unknown
		}
		_, found := x.set[v.s]
		res := False
		if found {
			res = True
		}
		if x.Negate {
			return triNot(res)
		}
		return res

	case *Like:
		v := lookup(x.X.Name, m)
		if v.kind == kindNull {
			return Unknown
		}
		if v.kind != kindString {
			return Unknown
		}
		res := False
		if x.prog.Match(v.s) {
			res = True
		}
		if x.Negate {
			return triNot(res)
		}
		return res

	case *IsNull:
		v := lookup(x.X.Name, m)
		isNull := v.kind == kindNull
		if x.Negate {
			isNull = !isNull
		}
		if isNull {
			return True
		}
		return False

	default:
		return Unknown
	}
}

func evalComparison(x *Binary, m *jms.Message) Tri {
	l := evalValue(x.L, m)
	r := evalValue(x.R, m)
	if l.kind == kindNull || r.kind == kindNull {
		return Unknown
	}

	// String comparison: only = and <> are defined by JMS.
	if l.kind == kindString || r.kind == kindString {
		if l.kind != kindString || r.kind != kindString {
			return Unknown
		}
		switch x.Op {
		case OpEq:
			return boolTri(l.s == r.s)
		case OpNeq:
			return boolTri(l.s != r.s)
		default:
			return Unknown
		}
	}

	// Boolean comparison: only = and <>.
	if l.kind == kindBool || r.kind == kindBool {
		if l.kind != kindBool || r.kind != kindBool {
			return Unknown
		}
		switch x.Op {
		case OpEq:
			return boolTri(l.b == r.b)
		case OpNeq:
			return boolTri(l.b != r.b)
		default:
			return Unknown
		}
	}

	return compareNumeric(l, r, x.Op)
}

func boolTri(b bool) Tri {
	if b {
		return True
	}
	return False
}

// compareNumeric compares two numeric values, promoting int to float when
// the kinds are mixed.
func compareNumeric(l, r value, op BinaryOp) Tri {
	if l.kind == kindNull || r.kind == kindNull {
		return Unknown
	}
	if (l.kind != kindInt && l.kind != kindFloat) || (r.kind != kindInt && r.kind != kindFloat) {
		return Unknown
	}
	if l.kind == kindInt && r.kind == kindInt {
		return boolTri(compareOrd(l.i, r.i, op))
	}
	lf, rf := l.asFloat(), r.asFloat()
	return boolTri(compareOrd(lf, rf, op))
}

func compareOrd[T int64 | float64](a, b T, op BinaryOp) bool {
	switch op {
	case OpEq:
		return a == b
	case OpNeq:
		return a != b
	case OpLt:
		return a < b
	case OpLeq:
		return a <= b
	case OpGt:
		return a > b
	case OpGeq:
		return a >= b
	default:
		return false
	}
}

func (v value) asFloat() float64 {
	if v.kind == kindInt {
		return float64(v.i)
	}
	return v.f
}

// evalValue evaluates an arithmetic subexpression to a runtime value.
// Arithmetic on NULL yields NULL; division by zero yields NULL (UNKNOWN at
// the comparison level), matching common JMS provider behaviour.
func evalValue(n Node, m *jms.Message) value {
	switch x := n.(type) {
	case *IntLit:
		return value{kind: kindInt, i: x.Value}
	case *FloatLit:
		return value{kind: kindFloat, f: x.Value}
	case *StringLit:
		return value{kind: kindString, s: x.Value}
	case *BoolLit:
		return value{kind: kindBool, b: x.Value}
	case *Ident:
		return lookup(x.Name, m)
	case *Neg:
		v := evalValue(x.X, m)
		switch v.kind {
		case kindInt:
			return value{kind: kindInt, i: -v.i}
		case kindFloat:
			return value{kind: kindFloat, f: -v.f}
		default:
			return nullValue
		}
	case *Binary:
		switch x.Op {
		case OpAdd, OpSub, OpMul, OpDiv:
			return evalArith(x, m)
		default:
			// A boolean subexpression used as a value.
			switch evalBool(x, m) {
			case True:
				return value{kind: kindBool, b: true}
			case False:
				return value{kind: kindBool, b: false}
			default:
				return nullValue
			}
		}
	default:
		return nullValue
	}
}

func evalArith(x *Binary, m *jms.Message) value {
	l := evalValue(x.L, m)
	r := evalValue(x.R, m)
	if l.kind == kindNull || r.kind == kindNull {
		return nullValue
	}
	lNum := l.kind == kindInt || l.kind == kindFloat
	rNum := r.kind == kindInt || r.kind == kindFloat
	if !lNum || !rNum {
		return nullValue
	}
	if l.kind == kindInt && r.kind == kindInt {
		switch x.Op {
		case OpAdd:
			return value{kind: kindInt, i: l.i + r.i}
		case OpSub:
			return value{kind: kindInt, i: l.i - r.i}
		case OpMul:
			return value{kind: kindInt, i: l.i * r.i}
		case OpDiv:
			if r.i == 0 {
				return nullValue
			}
			return value{kind: kindInt, i: l.i / r.i}
		}
	}
	lf, rf := l.asFloat(), r.asFloat()
	switch x.Op {
	case OpAdd:
		return value{kind: kindFloat, f: lf + rf}
	case OpSub:
		return value{kind: kindFloat, f: lf - rf}
	case OpMul:
		return value{kind: kindFloat, f: lf * rf}
	case OpDiv:
		if rf == 0 {
			return nullValue
		}
		return value{kind: kindFloat, f: lf / rf}
	}
	return nullValue
}

// Header field identifiers accessible from selectors, per JMS 1.1 §3.8.1.1.
const (
	fieldCorrelationID = "JMSCorrelationID"
	fieldPriority      = "JMSPriority"
	fieldMessageID     = "JMSMessageID"
	fieldTimestamp     = "JMSTimestamp"
	fieldDeliveryMode  = "JMSDeliveryMode"
	fieldType          = "JMSType"
)

// unixMilli is time.Unix(0, ns).UnixMilli() without the time.Time: the
// floor of ns / 1e6, so an instant before 1970 rounds down as the time
// package rounds it, where a plain division would round it up.
func unixMilli(ns int64) int64 {
	ms := ns / 1e6
	if ns%1e6 < 0 {
		ms--
	}
	return ms
}

// lookup resolves an identifier against the message: JMS header fields
// first, then the user property section. Missing values are NULL.
func lookup(name string, m *jms.Message) value {
	switch name {
	case fieldCorrelationID:
		if m.Header.CorrelationID == "" {
			return nullValue
		}
		return value{kind: kindString, s: m.Header.CorrelationID}
	case fieldPriority:
		return value{kind: kindInt, i: int64(m.Header.Priority)}
	case fieldMessageID:
		return value{kind: kindString, s: fmt.Sprintf("ID:%d", m.Header.MessageID)}
	case fieldTimestamp:
		return value{kind: kindInt, i: unixMilli(m.Header.Timestamp)}
	case fieldDeliveryMode:
		return value{kind: kindString, s: m.Header.DeliveryMode.String()}
	case fieldType:
		return nullValue
	}
	p, ok := m.Property(name)
	if !ok {
		return nullValue
	}
	switch p.Type {
	case jms.TypeBool:
		return value{kind: kindBool, b: p.B}
	case jms.TypeInt32, jms.TypeInt64:
		return value{kind: kindInt, i: p.I}
	case jms.TypeFloat64:
		return value{kind: kindFloat, f: p.F}
	case jms.TypeString:
		return value{kind: kindString, s: p.S}
	default:
		return nullValue
	}
}
