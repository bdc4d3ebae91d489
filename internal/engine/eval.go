package engine

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// relCol identifies a column of an intermediate relation by the qualifier
// (table alias, lower-cased) and column name.
type relCol struct {
	qual string
	name string
}

// relation is an intermediate result during execution. Column resolution
// goes through a per-relation index map built once from the column layout,
// so lookups are O(1) and ambiguity is detected uniformly for qualified and
// unqualified references (the old linear scan silently returned the first
// match for duplicate qualified names).
type relation struct {
	cols []relCol
	rows [][]Value
	idx  map[string]int // lookup key → column index or colAmbiguous
	sig  string         // lazily built layout signature for the plan cache
}

// layoutSig returns a string identifying the relation's column layout
// (qualifier + name per column, in order). Two relations with equal
// signatures resolve every column reference to the same index, so a compiled
// closure is interchangeable between them; the prepared-plan cache keys on
// this together with the expression identity.
func (r *relation) layoutSig() string {
	if r.sig == "" && len(r.cols) > 0 {
		var b strings.Builder
		for _, c := range r.cols {
			b.WriteString(c.qual)
			b.WriteByte('.')
			b.WriteString(c.name)
			b.WriteByte(0)
		}
		r.sig = b.String()
	}
	return r.sig
}

const (
	colUnknown   = -1
	colAmbiguous = -2
)

// index returns the relation's column lookup map, building it on first use.
// Every column is registered under its qualified key (qual NUL name) and its
// unqualified key (NUL name), both lowercased; a key claimed by more than
// one column maps to colAmbiguous.
func (r *relation) index() map[string]int {
	if r.idx == nil {
		m := make(map[string]int, 2*len(r.cols))
		add := func(key string, i int) {
			if _, ok := m[key]; ok {
				m[key] = colAmbiguous
			} else {
				m[key] = i
			}
		}
		for i, c := range r.cols {
			name := strings.ToLower(c.name)
			add(c.qual+"\x00"+name, i)
			// For unqualified columns (e.g. an unaliased derived table) the
			// qualified key IS the unqualified key — adding it again would
			// self-collide into a spurious ambiguity.
			if c.qual != "" {
				add("\x00"+name, i)
			}
		}
		r.idx = m
	}
	return r.idx
}

func (r *relation) findCol(qual, name string) (int, error) {
	key := strings.ToLower(qual) + "\x00" + strings.ToLower(name)
	idx, ok := r.index()[key]
	if !ok {
		idx = colUnknown
	}
	return idx, colErr(idx, qual, name)
}

func colErr(idx int, qual, name string) error {
	switch idx {
	case colUnknown:
		if qual != "" {
			return fmt.Errorf("engine: unknown column %s.%s", qual, name)
		}
		return fmt.Errorf("engine: unknown column %q", name)
	case colAmbiguous:
		if qual != "" {
			return fmt.Errorf("engine: ambiguous column %s.%s", qual, name)
		}
		return fmt.Errorf("engine: ambiguous column %q", name)
	}
	return nil
}

func evalArith(op string, l, r Value) (Value, error) {
	if !isNumeric(l) || !isNumeric(r) {
		return Null, fmt.Errorf("engine: arithmetic on non-numeric %s %s %s",
			l.Kind, op, r.Kind)
	}
	if l.Kind == KindInt && r.Kind == KindInt && op != "/" {
		a, b := l.Int, r.Int
		switch op {
		case "+":
			return NewInt(a + b), nil
		case "-":
			return NewInt(a - b), nil
		case "*":
			return NewInt(a * b), nil
		case "%":
			if b == 0 {
				return Null, nil
			}
			return NewInt(a % b), nil
		}
	}
	a, b := l.AsFloat(), r.AsFloat()
	switch op {
	case "+":
		return NewFloat(a + b), nil
	case "-":
		return NewFloat(a - b), nil
	case "*":
		return NewFloat(a * b), nil
	case "/":
		if b == 0 {
			return Null, nil
		}
		// Integer division yields an integer, matching common SQL engines.
		if l.Kind == KindInt && r.Kind == KindInt {
			return NewInt(l.Int / r.Int), nil
		}
		return NewFloat(a / b), nil
	case "%":
		if b == 0 {
			return Null, nil
		}
		return NewFloat(math.Mod(a, b)), nil
	}
	return Null, fmt.Errorf("engine: unknown arithmetic op %q", op)
}

func castValue(v Value, typ string) (Value, error) {
	if v.IsNull() {
		return Null, nil
	}
	switch typ {
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		switch v.Kind {
		case KindInt:
			return v, nil
		case KindFloat:
			return NewInt(int64(v.Float)), nil
		case KindString:
			n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
			if err != nil {
				return Null, nil
			}
			return NewInt(n), nil
		case KindBool:
			if v.Bool {
				return NewInt(1), nil
			}
			return NewInt(0), nil
		}
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		switch v.Kind {
		case KindInt, KindFloat:
			return NewFloat(v.AsFloat()), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
			if err != nil {
				return Null, nil
			}
			return NewFloat(f), nil
		}
	case "VARCHAR", "TEXT", "CHAR", "STRING":
		return NewString(v.String()), nil
	case "BOOL", "BOOLEAN":
		switch v.Kind {
		case KindBool:
			return v, nil
		case KindInt:
			return NewBool(v.Int != 0), nil
		case KindString:
			return NewBool(strings.EqualFold(v.Str, "true")), nil
		}
	}
	return Null, fmt.Errorf("engine: unsupported cast to %s", typ)
}

// likeMatch implements SQL LIKE with % (any run) and _ (single byte)
// wildcards, matching case-sensitively.
func likeMatch(s, pattern string) bool {
	// Dynamic-programming match over bytes.
	n, m := len(s), len(pattern)
	// dp[j] = does pattern[:j] match s[:i] for the current i.
	prev := make([]bool, m+1)
	cur := make([]bool, m+1)
	prev[0] = true
	for j := 1; j <= m; j++ {
		prev[j] = prev[j-1] && pattern[j-1] == '%'
	}
	for i := 1; i <= n; i++ {
		cur[0] = false
		for j := 1; j <= m; j++ {
			switch pattern[j-1] {
			case '%':
				cur[j] = cur[j-1] || prev[j]
			case '_':
				cur[j] = prev[j-1]
			default:
				cur[j] = prev[j-1] && pattern[j-1] == s[i-1]
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}
