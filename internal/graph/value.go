package graph

import (
	"fmt"
	"math"
	"strconv"
)

// ValueKind discriminates the dynamic type of a property Value.
type ValueKind uint8

// The value kinds supported by property graphs (Definition 6 assumes an
// abstract set Values; we fix a concrete, totally-ordered-within-kind set).
const (
	KindNull ValueKind = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

func (k ValueKind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is an atomic property value: one of null, bool, int64, float64, or
// string. The zero Value is null. Values are comparable with == (suitable as
// map keys) because every representation is stored inline.
type Value struct {
	kind ValueKind
	num  uint64 // bool, int64 and float64 payloads (bit patterns)
	str  string // string payload
}

// Null returns the null Value.
func Null() Value { return Value{} }

// Bool returns a boolean Value.
func Bool(b bool) Value {
	var n uint64
	if b {
		n = 1
	}
	return Value{kind: KindBool, num: n}
}

// Int returns an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, num: uint64(i)} }

// Float returns a floating-point Value.
func Float(f float64) Value { return Value{kind: KindFloat, num: math.Float64bits(f)} }

// Str returns a string Value.
func Str(s string) Value { return Value{kind: KindString, str: s} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() ValueKind { return v.kind }

// IsNull reports whether v is the null Value.
func (v Value) IsNull() bool { return v.kind == KindNull }

// AsBool returns the boolean payload; ok is false if v is not a bool.
func (v Value) AsBool() (b, ok bool) { return v.num == 1, v.kind == KindBool }

// AsInt returns the integer payload; ok is false if v is not an int.
func (v Value) AsInt() (int64, bool) { return int64(v.num), v.kind == KindInt }

// AsFloat returns the floating-point payload; ok is false if v is not a float.
func (v Value) AsFloat() (float64, bool) { return math.Float64frombits(v.num), v.kind == KindFloat }

// AsString returns the string payload; ok is false if v is not a string.
func (v Value) AsString() (string, bool) { return v.str, v.kind == KindString }

// Numeric reports v as a float64 if v is an int or a float.
func (v Value) Numeric() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(int64(v.num)), true
	case KindFloat:
		return math.Float64frombits(v.num), true
	default:
		return 0, false
	}
}

// String renders the value for display.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "null"
	case KindBool:
		if v.num == 1 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(int64(v.num), 10)
	case KindFloat:
		return strconv.FormatFloat(math.Float64frombits(v.num), 'g', -1, 64)
	case KindString:
		return v.str
	default:
		return "?"
	}
}

// Append appends v's String form to b.
func (v Value) Append(b []byte) []byte {
	switch v.kind {
	case KindInt:
		return strconv.AppendInt(b, int64(v.num), 10)
	case KindFloat:
		return strconv.AppendFloat(b, math.Float64frombits(v.num), 'g', -1, 64)
	}
	return append(b, v.String()...)
}

// Compare orders two values. Values of different kinds are ordered by kind
// (null < bool < numeric < string), except that ints and floats compare
// numerically with each other. Within a kind the natural order applies.
// The result is -1, 0, or +1.
func (v Value) Compare(w Value) int {
	vn, vIsNum := v.Numeric()
	wn, wIsNum := w.Numeric()
	if vIsNum && wIsNum {
		switch {
		case vn < wn:
			return -1
		case vn > wn:
			return 1
		default:
			return 0
		}
	}
	if v.kind != w.kind {
		if rankKind(v.kind) < rankKind(w.kind) {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindNull:
		return 0
	case KindBool:
		switch {
		case v.num < w.num:
			return -1
		case v.num > w.num:
			return 1
		default:
			return 0
		}
	case KindString:
		switch {
		case v.str < w.str:
			return -1
		case v.str > w.str:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

func rankKind(k ValueKind) int {
	switch k {
	case KindNull:
		return 0
	case KindBool:
		return 1
	case KindInt, KindFloat:
		return 2
	case KindString:
		return 3
	default:
		return 4
	}
}

// Equal reports whether v and w are the same value (ints and floats that are
// numerically equal are considered equal, matching Compare).
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Less reports whether v orders strictly before w.
func (v Value) Less(w Value) bool { return v.Compare(w) < 0 }

// CompareOp is a comparison operator usable in data tests (the set
// {=, ≠, <, >} of Section 3.2.1, extended with ≤ and ≥ for convenience).
type CompareOp uint8

// The comparison operators.
const (
	OpEq CompareOp = iota
	OpNe
	OpLt
	OpGt
	OpLe
	OpGe
)

func (op CompareOp) String() string {
	switch op {
	case OpEq:
		return "="
	case OpNe:
		return "!="
	case OpLt:
		return "<"
	case OpGt:
		return ">"
	case OpLe:
		return "<="
	case OpGe:
		return ">="
	default:
		return "?"
	}
}

// Negate returns the complementary operator, used to push negation of data
// tests to atoms (Remark 20).
func (op CompareOp) Negate() CompareOp {
	switch op {
	case OpEq:
		return OpNe
	case OpNe:
		return OpEq
	case OpLt:
		return OpGe
	case OpGt:
		return OpLe
	case OpLe:
		return OpGt
	case OpGe:
		return OpLt
	default:
		return op
	}
}

// Apply evaluates `v op w`. Comparisons involving null are false except
// null = null and null ≠ x for non-null x.
func (op CompareOp) Apply(v, w Value) bool {
	if v.IsNull() || w.IsNull() {
		switch op {
		case OpEq:
			return v.IsNull() && w.IsNull()
		case OpNe:
			return v.IsNull() != w.IsNull()
		default:
			return false
		}
	}
	c := v.Compare(w)
	switch op {
	case OpEq:
		return c == 0
	case OpNe:
		return c != 0
	case OpLt:
		return c < 0
	case OpGt:
		return c > 0
	case OpLe:
		return c <= 0
	case OpGe:
		return c >= 0
	default:
		return false
	}
}

// ParseOp parses a comparison operator token.
func ParseOp(s string) (CompareOp, error) {
	switch s {
	case "=", "==":
		return OpEq, nil
	case "!=", "<>":
		return OpNe, nil
	case "<":
		return OpLt, nil
	case ">":
		return OpGt, nil
	case "<=":
		return OpLe, nil
	case ">=":
		return OpGe, nil
	default:
		return 0, fmt.Errorf("graph: unknown comparison operator %q", s)
	}
}
