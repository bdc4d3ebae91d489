package engine

import (
	"math"
	"strconv"
)

// Columnar batch storage for the vectorized evaluator (kernels.go). A vector
// holds one expression's values for the rows a selection vector picks out of
// a morsel. Columns whose selected values share a single kind get typed
// storage (int64/float64/string/bool slices) so kernels run tight loops
// without per-element kind dispatch; NULL is carried in a validity mask
// alongside every representation. Columns mixing kinds across rows — legal,
// since tables are dynamically typed — fall back to generic Value storage,
// which every kernel accepts, so typing is a per-morsel fast path, never a
// semantic restriction.

// vecKind classifies a vector's storage representation.
type vecKind int8

const (
	vecGeneric vecKind = iota // vals: one Value per element (mixed-kind fallback)
	vecInt
	vecFloat
	vecString
	vecBool
)

// vector is one expression's values for the selected rows of a morsel. Only
// the slice matching kind is meaningful; null[i] marks SQL NULL regardless of
// kind (a null element's data slot is unspecified). Vectors are reused across
// morsels through batchCtx's free list.
type vector struct {
	kind   vecKind
	n      int
	null   []bool
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	vals   []Value
}

// reset prepares the vector for n elements of the given kind, reusing
// capacity and clearing the validity mask.
func (v *vector) reset(kind vecKind, n int) {
	v.kind = kind
	v.n = n
	if cap(v.null) < n {
		v.null = make([]bool, n)
	} else {
		v.null = v.null[:n]
		for i := range v.null {
			v.null[i] = false
		}
	}
	switch kind {
	case vecInt:
		if cap(v.ints) < n {
			v.ints = make([]int64, n)
		} else {
			v.ints = v.ints[:n]
		}
	case vecFloat:
		if cap(v.floats) < n {
			v.floats = make([]float64, n)
		} else {
			v.floats = v.floats[:n]
		}
	case vecString:
		if cap(v.strs) < n {
			v.strs = make([]string, n)
		} else {
			v.strs = v.strs[:n]
		}
	case vecBool:
		if cap(v.bools) < n {
			v.bools = make([]bool, n)
		} else {
			v.bools = v.bools[:n]
		}
	case vecGeneric:
		if cap(v.vals) < n {
			v.vals = make([]Value, n)
		} else {
			v.vals = v.vals[:n]
		}
	}
}

// setVal stores a generic element, keeping the validity mask in sync.
func (v *vector) setVal(i int, val Value) {
	v.vals[i] = val
	v.null[i] = val.Kind == KindNull
}

// value materializes element i back into the exact Value the row-at-a-time
// evaluator would have produced (typed storage remembers the original kind,
// so no information is lost round-tripping through a vector).
func (v *vector) value(i int) Value {
	if v.null[i] {
		return Null
	}
	switch v.kind {
	case vecInt:
		return NewInt(v.ints[i])
	case vecFloat:
		return NewFloat(v.floats[i])
	case vecString:
		return NewString(v.strs[i])
	case vecBool:
		return NewBool(v.bools[i])
	}
	return v.vals[i]
}

// float reads element i as float64; valid only for vecInt/vecFloat vectors
// and non-null elements (kernels check both before calling).
func (v *vector) float(i int) float64 {
	if v.kind == vecInt {
		return float64(v.ints[i])
	}
	return v.floats[i]
}

// isTrue reports Value.Truthy of element i: boolean true, and nothing else.
func (v *vector) isTrue(i int) bool {
	if v.null[i] {
		return false
	}
	switch v.kind {
	case vecBool:
		return v.bools[i]
	case vecGeneric:
		return v.vals[i].Truthy()
	}
	return false
}

// isFalse reports "definitely false" in the three-valued sense: non-null and
// not truthy. Non-bool non-null values are definitely false, matching
// Truthy's strictness.
func (v *vector) isFalse(i int) bool {
	if v.null[i] {
		return false
	}
	switch v.kind {
	case vecBool:
		return !v.bools[i]
	case vecGeneric:
		return !v.vals[i].Truthy()
	}
	return true
}

// numeric reports whether every non-null element is numeric by construction.
func (v *vector) numeric() bool { return v.kind == vecInt || v.kind == vecFloat }

// appendKey appends element i's hash-key encoding to b. Each arm reproduces
// Value.AppendKey (value.go) for the corresponding kind byte for byte —
// including the integral-float-to-int normalization — so keys built from
// vectors collide exactly with keys built from materialized Values.
func (v *vector) appendKey(b []byte, i int) []byte {
	if v.null[i] {
		return append(b, 'n')
	}
	switch v.kind {
	case vecInt:
		return strconv.AppendInt(append(b, 'i'), v.ints[i], 10)
	case vecFloat:
		f := v.floats[i]
		if f == math.Trunc(f) && !math.IsInf(f, 0) &&
			f >= math.MinInt64 && f <= math.MaxInt64 {
			return strconv.AppendInt(append(b, 'i'), int64(f), 10)
		}
		return strconv.AppendFloat(append(b, 'f'), f, 'b', -1, 64)
	case vecString:
		return append(append(b, 's'), v.strs[i]...)
	case vecBool:
		if v.bools[i] {
			return append(b, 'b', 't')
		}
		return append(b, 'b', 'f')
	}
	return v.vals[i].AppendKey(b)
}

// appendRowKeyVecs appends the composite AppendRowKey encoding of element i
// across the given vectors — bit-identical to AppendRowKey over the
// materialized values, without materializing them.
func appendRowKeyVecs(b []byte, vecs []*vector, i int) []byte {
	for _, v := range vecs {
		p := len(b)
		b = append(b, 0, 0, 0, 0)
		b = v.appendKey(b, i)
		n := len(b) - p - 4
		b[p] = byte(n)
		b[p+1] = byte(n >> 8)
		b[p+2] = byte(n >> 16)
		b[p+3] = byte(n >> 24)
	}
	return b
}

// fillConst fills the vector with n copies of one value, typed by its kind.
func (v *vector) fillConst(val Value, n int) {
	switch val.Kind {
	case KindInt:
		v.reset(vecInt, n)
		for i := range v.ints {
			v.ints[i] = val.Int
		}
	case KindFloat:
		v.reset(vecFloat, n)
		for i := range v.floats {
			v.floats[i] = val.Float
		}
	case KindString:
		v.reset(vecString, n)
		for i := range v.strs {
			v.strs[i] = val.Str
		}
	case KindBool:
		v.reset(vecBool, n)
		for i := range v.bools {
			v.bools[i] = val.Bool
		}
	default:
		v.reset(vecGeneric, n)
		for i := range v.vals {
			v.setVal(i, val)
		}
	}
}

// valueVecKind maps a Value kind to its typed vector representation
// (ok=false for NULL and any kind without typed storage).
func valueVecKind(k Kind) (vecKind, bool) {
	switch k {
	case KindInt:
		return vecInt, true
	case KindFloat:
		return vecFloat, true
	case KindString:
		return vecString, true
	case KindBool:
		return vecBool, true
	}
	return vecGeneric, false
}

// loadColumn copies the selected rows of one column into out, classifying
// the type per morsel: a mono-kind run gets typed storage, anything else
// falls back to generic Values (the "fall back cleanly" path for mixed-type
// columns). Classification is optimistic — the gather assumes the first
// non-null value's kind and restarts generically on the first mismatch — so
// the common mono-kind slab is loaded in a single pass.
func loadColumn(rows [][]Value, sel []int, col int, out *vector) {
	kind := vecGeneric
	for _, ri := range sel {
		if k := rows[ri][col].Kind; k != KindNull {
			kind, _ = valueVecKind(k)
			break
		}
	}
	out.reset(kind, len(sel))
	switch kind {
	case vecInt:
		for i, ri := range sel {
			v := rows[ri][col]
			if v.Kind != KindInt {
				if v.Kind == KindNull {
					out.null[i] = true
					continue
				}
				loadColumnGeneric(rows, sel, col, out)
				return
			}
			out.ints[i] = v.Int
		}
	case vecFloat:
		for i, ri := range sel {
			v := rows[ri][col]
			if v.Kind != KindFloat {
				if v.Kind == KindNull {
					out.null[i] = true
					continue
				}
				loadColumnGeneric(rows, sel, col, out)
				return
			}
			out.floats[i] = v.Float
		}
	case vecString:
		for i, ri := range sel {
			v := rows[ri][col]
			if v.Kind != KindString {
				if v.Kind == KindNull {
					out.null[i] = true
					continue
				}
				loadColumnGeneric(rows, sel, col, out)
				return
			}
			out.strs[i] = v.Str
		}
	case vecBool:
		for i, ri := range sel {
			v := rows[ri][col]
			if v.Kind != KindBool {
				if v.Kind == KindNull {
					out.null[i] = true
					continue
				}
				loadColumnGeneric(rows, sel, col, out)
				return
			}
			out.bools[i] = v.Bool
		}
	default:
		loadColumnGeneric(rows, sel, col, out)
	}
}

// loadColumnGeneric is the untyped gather, also the restart target when the
// optimistic typed gather meets a kind mismatch mid-slab.
func loadColumnGeneric(rows [][]Value, sel []int, col int, out *vector) {
	out.reset(vecGeneric, len(sel))
	for i, ri := range sel {
		out.setVal(i, rows[ri][col])
	}
}

// batchCtx is the per-worker evaluation state for batch plans: the input
// rows plus free lists of scratch vectors and selection slices reused across
// morsels. It is not safe for concurrent use; each worker owns one.
type batchCtx struct {
	rows     [][]Value
	freeVecs []*vector
	freeSels [][]int
}

func (bc *batchCtx) get() *vector {
	if n := len(bc.freeVecs); n > 0 {
		v := bc.freeVecs[n-1]
		bc.freeVecs = bc.freeVecs[:n-1]
		return v
	}
	return &vector{}
}

func (bc *batchCtx) put(v *vector) { bc.freeVecs = append(bc.freeVecs, v) }

func (bc *batchCtx) getSel() []int {
	if n := len(bc.freeSels); n > 0 {
		s := bc.freeSels[n-1]
		bc.freeSels = bc.freeSels[:n-1]
		return s[:0]
	}
	return nil
}

func (bc *batchCtx) putSel(s []int) { bc.freeSels = append(bc.freeSels, s) }

// identitySel returns the ascending selection vector [0, n). Callers slice
// it per morsel and must treat it as read-only.
func identitySel(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}
