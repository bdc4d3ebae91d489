// Package engine implements an in-memory SQL execution engine: typed values,
// multi-table databases, and an executor for the SELECT subset produced by
// the sqlparser package (filters, equijoins and general joins, outer joins,
// grouped aggregation, set operations, CTEs and subqueries).
//
// In the paper's architecture (Figure 2) the database is an arbitrary
// external backend; FLEX treats it as a black box that returns true query
// results. This engine plays that role for the experiments so that every
// evaluation in the paper can run end to end without external dependencies.
package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind identifies the runtime type of a Value.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "STRING"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a dynamically typed SQL value. The zero Value is NULL.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
	Bool  bool
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// NewInt returns an integer value.
func NewInt(v int64) Value { return Value{Kind: KindInt, Int: v} }

// NewFloat returns a float value.
func NewFloat(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// NewString returns a string value.
func NewString(v string) Value { return Value{Kind: KindString, Str: v} }

// NewBool returns a boolean value.
func NewBool(v bool) Value { return Value{Kind: KindBool, Bool: v} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsFloat converts numeric values to float64; other kinds return 0.
func (v Value) AsFloat() float64 {
	switch v.Kind {
	case KindInt:
		return float64(v.Int)
	case KindFloat:
		return v.Float
	}
	return 0
}

// String renders the value for display.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case KindString:
		return v.Str
	case KindBool:
		if v.Bool {
			return "true"
		}
		return "false"
	}
	return "?"
}

// Key returns a string usable as a hash-map key; distinct values map to
// distinct keys and equal values (including int/float numeric equality, as
// used by SQL join keys) map to equal keys.
func (v Value) Key() string {
	return string(v.AppendKey(nil))
}

// AppendKey appends the Key encoding of v to b and returns the extended
// slice. It is the allocation-free form of Key for callers that reuse a
// scratch buffer across rows (hash joins, grouping, dedupe).
func (v Value) AppendKey(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, 'n')
	case KindInt:
		return strconv.AppendInt(append(b, 'i'), v.Int, 10)
	case KindFloat:
		if v.Float == math.Trunc(v.Float) && !math.IsInf(v.Float, 0) &&
			v.Float >= math.MinInt64 && v.Float <= math.MaxInt64 {
			// Normalize integral floats to the int key so 2 joins with 2.0.
			return strconv.AppendInt(append(b, 'i'), int64(v.Float), 10)
		}
		return strconv.AppendFloat(append(b, 'f'), v.Float, 'b', -1, 64)
	case KindString:
		return append(append(b, 's'), v.Str...)
	case KindBool:
		if v.Bool {
			return append(b, 'b', 't')
		}
		return append(b, 'b', 'f')
	}
	return append(b, '?')
}

// AppendRowKey appends a composite, injective encoding of the row to b:
// each component is written as a fixed-width length prefix followed by its
// Key bytes, so component boundaries never collide. Callers reuse the
// returned slice as the scratch buffer for the next row.
func AppendRowKey(b []byte, row []Value) []byte {
	for _, v := range row {
		p := len(b)
		b = append(b, 0, 0, 0, 0)
		b = v.AppendKey(b)
		n := len(b) - p - 4
		b[p] = byte(n)
		b[p+1] = byte(n >> 8)
		b[p+2] = byte(n >> 16)
		b[p+3] = byte(n >> 24)
	}
	return b
}

// RowKey encodes a row of values into a single composite hash key.
func RowKey(row []Value) string {
	return string(AppendRowKey(nil, row))
}

// Compare orders two non-null values. Numeric kinds compare numerically,
// strings lexically, bools false<true. Cross-kind comparisons order by kind.
// The result is -1, 0, or +1.
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		// NULLs sort first (engine-internal ordering for ORDER BY).
		switch {
		case a.Kind == KindNull && b.Kind == KindNull:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(a) && isNumeric(b) {
		af, bf := a.AsFloat(), b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.Str, b.Str)
	case KindBool:
		switch {
		case a.Bool == b.Bool:
			return 0
		case !a.Bool:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// Equal reports SQL equality of two non-null values; if either side is NULL
// the result is false (callers needing 3VL check IsNull first, as the
// compiled comparisons do).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	if isNumeric(a) && isNumeric(b) {
		return a.AsFloat() == b.AsFloat()
	}
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindString:
		return a.Str == b.Str
	case KindBool:
		return a.Bool == b.Bool
	}
	return false
}

func isNumeric(v Value) bool { return v.Kind == KindInt || v.Kind == KindFloat }

// Truthy reports whether the value is boolean true (SQL predicates treat
// NULL and non-true as excluded).
func (v Value) Truthy() bool { return v.Kind == KindBool && v.Bool }
