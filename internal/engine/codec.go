package engine

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Exact Value serialization for spill files. Unlike the hash-key encoding
// (AppendKey), which deliberately conflates 2 with 2.0 so numeric join keys
// compare SQL-equal, this codec round-trips every Value bit-for-bit — kind,
// integer width, float bit pattern — so a row read back from disk is
// indistinguishable from the one that was spilled. That exactness is what
// lets the out-of-core join and sort paths guarantee results identical to
// the in-memory operators.

// Value wire tags. These are a file format only within a single query's
// lifetime (spill files never outlive their query), so there is no
// versioning concern.
const (
	tagNull byte = 'N'
	tagInt  byte = 'I'
	tagF64  byte = 'F'
	tagStr  byte = 'S'
	tagTrue byte = 'T'
	tagFals byte = 'f'
)

// AppendValue appends the exact encoding of v to b.
func AppendValue(b []byte, v Value) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, tagNull)
	case KindInt:
		b = append(b, tagInt)
		return binary.AppendVarint(b, v.Int)
	case KindFloat:
		b = append(b, tagF64)
		return binary.LittleEndian.AppendUint64(b, math.Float64bits(v.Float))
	case KindString:
		b = append(b, tagStr)
		b = binary.AppendUvarint(b, uint64(len(v.Str)))
		return append(b, v.Str...)
	case KindBool:
		if v.Bool {
			return append(b, tagTrue)
		}
		return append(b, tagFals)
	}
	// Unknown kinds cannot occur for engine-produced values; encode as NULL
	// so a spill never fails late.
	return append(b, tagNull)
}

// DecodeValue decodes one value from b, returning it and the bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, fmt.Errorf("engine: truncated value encoding")
	}
	switch b[0] {
	case tagNull:
		return Null, 1, nil
	case tagInt:
		x, n := binary.Varint(b[1:])
		if n <= 0 {
			return Null, 0, fmt.Errorf("engine: bad int encoding")
		}
		return NewInt(x), 1 + n, nil
	case tagF64:
		if len(b) < 9 {
			return Null, 0, fmt.Errorf("engine: truncated float encoding")
		}
		return NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(b[1:9]))), 9, nil
	case tagStr:
		n, w := binary.Uvarint(b[1:])
		// The n > len(b) guard also keeps the 1+w+n sum from wrapping on a
		// corrupted length near 2^64.
		if w <= 0 || n > uint64(len(b)) || uint64(len(b)) < 1+uint64(w)+n {
			return Null, 0, fmt.Errorf("engine: truncated string encoding")
		}
		start := 1 + w
		return NewString(string(b[start : start+int(n)])), start + int(n), nil
	case tagTrue:
		return NewBool(true), 1, nil
	case tagFals:
		return NewBool(false), 1, nil
	}
	return Null, 0, fmt.Errorf("engine: unknown value tag %q", b[0])
}

// AppendRow appends the exact encoding of a row: a uvarint arity followed by
// each value.
func AppendRow(b []byte, row []Value) []byte {
	b = binary.AppendUvarint(b, uint64(len(row)))
	for _, v := range row {
		b = AppendValue(b, v)
	}
	return b
}

// appendRowCols appends row narrowed to the columns cols lists (nil: every
// column) in AppendRow's encoding, without building the narrowed row.
func appendRowCols(b []byte, row []Value, cols []int) []byte {
	if cols == nil {
		return AppendRow(b, row)
	}
	b = binary.AppendUvarint(b, uint64(len(cols)))
	for _, c := range cols {
		b = AppendValue(b, row[c])
	}
	return b
}

// DecodeRow decodes one row from b, returning it and the bytes consumed.
func DecodeRow(b []byte) ([]Value, int, error) {
	arity, w := binary.Uvarint(b)
	// Every value costs at least one byte, so a valid arity cannot exceed
	// the remaining input; the bound turns a corrupted length into an error
	// instead of a makeslice panic.
	if w <= 0 || arity > uint64(len(b)-w) {
		return nil, 0, fmt.Errorf("engine: bad row arity encoding")
	}
	off := w
	row := make([]Value, arity)
	for i := range row {
		v, n, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, err
		}
		row[i] = v
		off += n
	}
	return row, off, nil
}

// estRowBytes estimates the in-memory footprint of one row: the Value struct
// array plus string payloads plus slice header overhead. Operators compare
// summed estimates against the spill budget; the estimate errs on the small
// side of Go's true allocation cost, which only makes spilling kick in
// slightly late, never wrongly.
func estRowBytes(row []Value) int64 {
	n := int64(24 + 48*len(row))
	for i := range row {
		if row[i].Kind == KindString {
			n += int64(len(row[i].Str))
		}
	}
	return n
}

// estRowsBytes sums estRowBytes over a row set.
func estRowsBytes(rows [][]Value) int64 {
	var n int64
	for _, r := range rows {
		n += estRowBytes(r)
	}
	return n
}
