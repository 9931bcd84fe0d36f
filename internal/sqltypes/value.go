// Package sqltypes defines the value, row, schema and relation types shared
// by every layer of the federation: remote server storage and executors, the
// integrator's merge operators, and the wrappers that ship rows across the
// simulated network.
package sqltypes

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the value kinds supported by the SQL subset.
type Kind uint8

const (
	// KindNull is the SQL NULL marker.
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is a UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "DOUBLE"
	case KindString:
		return "VARCHAR"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single SQL value. The zero Value is NULL. One word carries the
// integer (or boolean 0/1) payload or the float's IEEE bits, whichever the
// kind says; a Value is 32 bytes.
type Value struct {
	kind Kind
	n    uint64
	s    string
}

// Null is the SQL NULL value.
var Null = Value{}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{kind: KindInt, n: uint64(v)} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{kind: KindFloat, n: math.Float64bits(v)} }

// NewString returns a string value.
func NewString(v string) Value { return Value{kind: KindString, s: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value {
	n := uint64(0)
	if v {
		n = 1
	}
	return Value{kind: KindBool, n: n}
}

// Kind reports the value's kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// Int returns the integer payload. It is only meaningful for KindInt and
// KindBool values; every other kind reads 0.
func (v Value) Int() int64 {
	if v.kind == KindInt || v.kind == KindBool {
		return int64(v.n)
	}
	return 0
}

// float returns the float payload of a KindFloat value.
func (v Value) float() float64 { return math.Float64frombits(v.n) }

// Float returns the value coerced to float64 (ints are widened).
func (v Value) Float() float64 {
	switch v.kind {
	case KindFloat:
		return v.float()
	case KindInt, KindBool:
		return float64(int64(v.n))
	default:
		return 0
	}
}

// Str returns the string payload. Only meaningful for KindString.
func (v Value) Str() string { return v.s }

// Bool reports the value's truthiness. Booleans and integers are true when
// nonzero, floats when nonzero (including NaN), and NULL and strings are
// always false. This mirrors sqlparser's truthiness for the kinds that carry
// a numeric payload, so NewFloat(1).Bool() is true.
func (v Value) Bool() bool {
	switch v.kind {
	case KindBool, KindInt:
		return v.n != 0
	case KindFloat:
		return v.float() != 0
	default:
		return false
	}
}

// IsNumeric reports whether the value is an int or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// String renders the value for display and plan signatures.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(int64(v.n), 10)
	case KindFloat:
		return strconv.FormatFloat(v.float(), 'g', -1, 64)
	case KindString:
		return "'" + strings.ReplaceAll(v.s, "'", "''") + "'"
	case KindBool:
		if v.n != 0 {
			return "TRUE"
		}
		return "FALSE"
	default:
		return "?"
	}
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare numerically across int/float; strings lexically; bools false<true.
// Cross-kind non-numeric comparisons order by kind to keep sorting total.
func Compare(a, b Value) int {
	if a.kind == KindNull || b.kind == KindNull {
		switch {
		case a.kind == KindNull && b.kind == KindNull:
			return 0
		case a.kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if a.IsNumeric() && b.IsNumeric() {
		if a.kind == KindInt && b.kind == KindInt {
			ai, bi := int64(a.n), int64(b.n)
			switch {
			case ai < bi:
				return -1
			case ai > bi:
				return 1
			default:
				return 0
			}
		}
		af, bf := a.Float(), b.Float()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.kind != b.kind {
		if a.kind < b.kind {
			return -1
		}
		return 1
	}
	switch a.kind {
	case KindString:
		return strings.Compare(a.s, b.s)
	case KindBool:
		switch {
		case a.n < b.n:
			return -1
		case a.n > b.n:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// Equal reports SQL equality treating NULL as not equal to anything,
// including NULL.
func Equal(a, b Value) bool {
	if a.kind == KindNull || b.kind == KindNull {
		return false
	}
	return Compare(a, b) == 0
}

// Hash returns a stable hash of the value, suitable for hash joins and
// grouping. Numerically equal int/float values hash identically.
func (v Value) Hash() uint64 {
	switch v.kind {
	case KindInt, KindBool:
		return HashInt64(int64(v.n))
	case KindFloat:
		return HashFloat64(v.float())
	case KindString:
		return HashString(v.s)
	default:
		return HashNull()
	}
}

// ByteSize approximates the wire size of the value in bytes, used by the
// network transfer model.
func (v Value) ByteSize() int {
	switch v.kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return 2 + len(v.s)
	default:
		return 1
	}
}
