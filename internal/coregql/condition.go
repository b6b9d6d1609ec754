package coregql

import (
	"fmt"
	"strconv"
	"strings"

	"graphquery/internal/graph"
)

// Condition is a CoreGQL condition θ (Section 4.1.1):
//
//	θ := x.k op x'.k' | x.k op c | ℓ(x) | θ ∨ θ' | θ ∧ θ' | ¬θ
//
// (the paper's grammar has = and <; the remaining comparisons are
// definable and provided directly).
type Condition interface {
	fmt.Stringer
	// Holds evaluates µ ⊨ θ per Figure 4. Comparisons involving an
	// undefined property are false.
	Holds(g *graph.Graph, binding map[string]graph.Object) bool
	isCondition()
}

// PropCmp is x.K op y.K2 or, with UseConst, x.K op Const.
type PropCmp struct {
	X  string
	K  string
	Op graph.CompareOp

	Y  string
	K2 string

	UseConst bool
	Const    graph.Value
}

// Cmp returns the condition x.k op y.k2.
func Cmp(x, k string, op graph.CompareOp, y, k2 string) Condition {
	return PropCmp{X: x, K: k, Op: op, Y: y, K2: k2}
}

// CmpConst returns the condition x.k op c.
func CmpConst(x, k string, op graph.CompareOp, c graph.Value) Condition {
	return PropCmp{X: x, K: k, Op: op, UseConst: true, Const: c}
}

// LabelIs is ℓ(x): the element bound to x has label ℓ.
type LabelIs struct {
	X     string
	Label string
}

// HasLabel returns the condition ℓ(x).
func HasLabel(x, label string) Condition { return LabelIs{X: x, Label: label} }

// And is θ ∧ θ'.
type And struct{ L, R Condition }

// Or is θ ∨ θ'.
type Or struct{ L, R Condition }

// Not is ¬θ.
type Not struct{ Sub Condition }

func (PropCmp) isCondition() {}
func (LabelIs) isCondition() {}
func (And) isCondition()     {}
func (Or) isCondition()      {}
func (Not) isCondition()     {}

func (c PropCmp) String() string {
	if c.UseConst {
		return fmt.Sprintf("%s.%s %s %s", c.X, c.K, c.Op, literal(c.Const))
	}
	return fmt.Sprintf("%s.%s %s %s.%s", c.X, c.K, c.Op, c.Y, c.K2)
}

// literal writes a constant the way the gql condition lexer reads one: a
// string quoted, its quotes and backslashes escaped, and a float in
// positional notation with a decimal point.
func literal(v graph.Value) string {
	switch v.Kind() {
	case graph.KindString:
		return "'" + literalEscaper.Replace(v.String()) + "'"
	case graph.KindFloat:
		f, _ := v.Numeric()
		s := strconv.FormatFloat(f, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0"
		}
		return s
	}
	return v.String()
}

var literalEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`)

func (c LabelIs) String() string { return fmt.Sprintf("%s(%s)", c.Label, c.X) }
func (c And) String() string     { return "(" + c.L.String() + " AND " + c.R.String() + ")" }
func (c Or) String() string      { return "(" + c.L.String() + " OR " + c.R.String() + ")" }
func (c Not) String() string     { return "NOT " + c.Sub.String() }

// Holds implements Condition.
func (c PropCmp) Holds(g *graph.Graph, b map[string]graph.Object) bool {
	ox, ok := b[c.X]
	if !ok {
		return false
	}
	lv, defined := g.Prop(ox, c.K)
	if !defined {
		return false
	}
	var rv graph.Value
	if c.UseConst {
		rv = c.Const
	} else {
		oy, ok := b[c.Y]
		if !ok {
			return false
		}
		rv, defined = g.Prop(oy, c.K2)
		if !defined {
			return false
		}
	}
	return c.Op.Apply(lv, rv)
}

// Holds implements Condition.
func (c LabelIs) Holds(g *graph.Graph, b map[string]graph.Object) bool {
	o, ok := b[c.X]
	if !ok {
		return false
	}
	return g.Label(o) == c.Label
}

// Holds implements Condition.
func (c And) Holds(g *graph.Graph, b map[string]graph.Object) bool {
	return c.L.Holds(g, b) && c.R.Holds(g, b)
}

// Holds implements Condition.
func (c Or) Holds(g *graph.Graph, b map[string]graph.Object) bool {
	return c.L.Holds(g, b) || c.R.Holds(g, b)
}

// Holds implements Condition.
func (c Not) Holds(g *graph.Graph, b map[string]graph.Object) bool {
	return !c.Sub.Holds(g, b)
}

// condVars returns the variables mentioned by a condition.
func condVars(c Condition) []string {
	switch n := c.(type) {
	case PropCmp:
		if n.UseConst {
			return []string{n.X}
		}
		return []string{n.X, n.Y}
	case LabelIs:
		return []string{n.X}
	case And:
		return append(condVars(n.L), condVars(n.R)...)
	case Or:
		return append(condVars(n.L), condVars(n.R)...)
	case Not:
		return condVars(n.Sub)
	default:
		return nil
	}
}
