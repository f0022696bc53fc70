package selector

import (
	"fmt"
	"strconv"
	"strings"
)

// Node is an AST node of a parsed selector expression.
type Node interface {
	// String renders the node back to selector syntax (normalized).
	String() string
}

// BinaryOp enumerates binary operators.
type BinaryOp int

// Binary operators.
const (
	OpEq BinaryOp = iota + 1
	OpNeq
	OpLt
	OpLeq
	OpGt
	OpGeq
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpAnd
	OpOr
)

// String returns the selector spelling of the operator.
func (op BinaryOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNeq:
		return "<>"
	case OpLt:
		return "<"
	case OpLeq:
		return "<="
	case OpGt:
		return ">"
	case OpGeq:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return "BinaryOp(" + strconv.Itoa(int(op)) + ")"
	}
}

// Ident references a message property or a header field (JMSCorrelationID,
// JMSPriority, JMSType, JMSMessageID, JMSTimestamp, JMSDeliveryMode).
type Ident struct {
	Name string
}

func (n *Ident) String() string { return n.Name }

// IntLit is an integer literal.
type IntLit struct {
	Value int64
}

func (n *IntLit) String() string { return strconv.FormatInt(n.Value, 10) }

// FloatLit is a floating-point literal.
type FloatLit struct {
	Value float64
}

// String prints negative zero as "0": "-0" would re-parse as the integer
// 0 and print differently, and the two compare equal.
func (n *FloatLit) String() string {
	if n.Value == 0 {
		return "0"
	}
	return strconv.FormatFloat(n.Value, 'g', -1, 64)
}

// StringLit is a string literal.
type StringLit struct {
	Value string
}

func (n *StringLit) String() string {
	return "'" + strings.ReplaceAll(n.Value, "'", "''") + "'"
}

// BoolLit is TRUE or FALSE.
type BoolLit struct {
	Value bool
}

func (n *BoolLit) String() string {
	if n.Value {
		return "TRUE"
	}
	return "FALSE"
}

// Binary is a binary expression.
type Binary struct {
	Op   BinaryOp
	L, R Node
}

func (n *Binary) String() string {
	return fmt.Sprintf("(%s %s %s)", n.L, n.Op, n.R)
}

// Not is logical negation.
type Not struct {
	X Node
}

func (n *Not) String() string { return fmt.Sprintf("(NOT %s)", n.X) }

// Neg is arithmetic negation.
type Neg struct {
	X Node
}

func (n *Neg) String() string { return fmt.Sprintf("(-%s)", n.X) }

// Between is `X [NOT] BETWEEN Lo AND Hi`.
type Between struct {
	X      Node
	Lo, Hi Node
	Negate bool
}

func (n *Between) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s NOT BETWEEN %s AND %s)", n.X, n.Lo, n.Hi)
	}
	return fmt.Sprintf("(%s BETWEEN %s AND %s)", n.X, n.Lo, n.Hi)
}

// In is `Ident [NOT] IN (list...)`. JMS restricts the left side to an
// identifier and the list to string literals.
type In struct {
	X      *Ident
	List   []string
	Negate bool
	// set is the compiled lookup table, built by the parser.
	set map[string]struct{}
}

func (n *In) String() string {
	var sb strings.Builder
	sb.WriteString("(")
	sb.WriteString(n.X.String())
	if n.Negate {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" IN (")
	for i, s := range n.List {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString((&StringLit{Value: s}).String())
	}
	sb.WriteString("))")
	return sb.String()
}

// Like is `Ident [NOT] LIKE pattern [ESCAPE esc]`. The pattern uses SQL
// wildcards: '%' matches any sequence, '_' any single character.
type Like struct {
	X       *Ident
	Pattern string
	Escape  byte // 0 when absent
	Negate  bool
	// prog is the compiled pattern, built by the parser.
	prog Wildcard
}

func (n *Like) String() string {
	var sb strings.Builder
	sb.WriteString("(")
	sb.WriteString(n.X.String())
	if n.Negate {
		sb.WriteString(" NOT")
	}
	sb.WriteString(" LIKE ")
	sb.WriteString((&StringLit{Value: n.Pattern}).String())
	if n.Escape != 0 {
		sb.WriteString(" ESCAPE ")
		sb.WriteString((&StringLit{Value: string(n.Escape)}).String())
	}
	sb.WriteString(")")
	return sb.String()
}

// IsNull is `Ident IS [NOT] NULL`.
type IsNull struct {
	X      *Ident
	Negate bool
}

func (n *IsNull) String() string {
	if n.Negate {
		return fmt.Sprintf("(%s IS NOT NULL)", n.X)
	}
	return fmt.Sprintf("(%s IS NULL)", n.X)
}

// Identifiers collects the distinct identifier names referenced by the
// expression, in first-appearance order. Useful for static diagnostics and
// for the broker's filter-cost accounting.
func Identifiers(n Node) []string {
	var names []string
	seen := make(map[string]struct{})
	var walk func(Node)
	add := func(name string) {
		if _, ok := seen[name]; !ok {
			seen[name] = struct{}{}
			names = append(names, name)
		}
	}
	walk = func(n Node) {
		switch x := n.(type) {
		case *Ident:
			add(x.Name)
		case *Binary:
			walk(x.L)
			walk(x.R)
		case *Not:
			walk(x.X)
		case *Neg:
			walk(x.X)
		case *Between:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *In:
			add(x.X.Name)
		case *Like:
			add(x.X.Name)
		case *IsNull:
			add(x.X.Name)
		}
	}
	walk(n)
	return names
}
