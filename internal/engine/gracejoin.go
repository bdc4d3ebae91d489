package engine

import (
	"container/heap"
	"encoding/binary"
)

// Grace-style partitioned hash join: when the build side exceeds the memory
// budget, both inputs go through the recursive partitioner (partition.go)
// keyed on the join key, and each partition is joined independently with an
// in-memory build over the (now budget-sized) partition. The join supplies
// idxCodec — rows tagged with their original position, a NULL join key
// dropped — and graceLeaf; its level 0 is graceJoinOp (stream.go), whose
// probe side streams into the partition writers.
//
// Determinism: the in-memory join emits matches ordered by (left row,
// build row) — probe rows are scanned in order and every posting list holds
// ascending build positions. The Grace join reproduces exactly that order:
// partition files preserve input order, so each leaf emits one run of
// matches ascending by (left index, build index), and because each left row
// joins entirely inside one partition, a k-way merge of the runs on the
// left index restores the global order (emitMatches). Rows round-trip
// through the exact Value codec, so the output is bit-identical to the
// in-memory path.

// idxRow is a row tagged with its position in the original relation, so
// matched-flag updates and output ordering survive partitioning.
type idxRow struct {
	idx int
	row []Value
}

// graceRow is one emitted combined row tagged with its left-row index for
// the order-restoring merge.
type graceRow struct {
	li  int
	row []Value
}

// graceState carries the join's immutable configuration and accumulates
// matches across partitions.
type graceState struct {
	keys   []equiKey
	resFns []evalFn
	width  int
	// keepL/keepR list the columns of a probe/build row an output row
	// carries (nil: the whole row), as joinProbe's do.
	keepL, keepR []int
	matchedLeft  []bool
	matchedRight []bool
	// out holds every leaf's matches, one run per leaf call; runEnds[i] is
	// where run i ends in out.
	out     []graceRow
	runEnds []int
	// resErr tracks the residual-evaluation error of the lexicographically
	// smallest failing (left, build) position pair seen so far. The serial
	// probe evaluates pairs in exactly that order and stops at the first
	// failure, so returning the minimum across partitions surfaces the same
	// error the in-memory join would — partition order must not leak into
	// which error the caller sees.
	resErr   error
	resErrLi int
	resErrRi int
}

// noteResidualErr records a residual failure at original positions (li, ri)
// if it precedes the current candidate in serial evaluation order.
func (st *graceState) noteResidualErr(li, ri int, err error) {
	if st.resErr == nil || li < st.resErrLi || (li == st.resErrLi && ri < st.resErrRi) {
		st.resErr, st.resErrLi, st.resErrRi = err, li, ri
	}
}

func (st *graceState) leftCol(i int) int  { return st.keys[i].leftIdx }
func (st *graceState) rightCol(i int) int { return st.keys[i].rightIdx }

// gracePartition is the join's partitioner over the records below level 0:
// the build side (sized, side 0) and the probe side, both keyed by the
// record key columns. A partition missing either side can produce no match
// (outer padding reads the flags), so it is skipped unread.
func (ctx *execContext) gracePartition(st *graceState) *partition[idxRow] {
	return &partition[idxRow]{
		codecs: []partCodec[idxRow]{newIdxCodec(st.rightCol, len(st.keys), nil), newIdxCodec(st.leftCol, len(st.keys), nil)},
		size:   estIdxRowsBytes, sized: 1, need: 2,
		noteRecursion: ctx.spill.NoteJoinRecursion, noteOverBudget: ctx.spill.NoteOverBudgetBuild,
		leaf: func(s [][]idxRow) error {
			err := ctx.graceLeaf(s[0], s[1], st)
			st.runEnds = append(st.runEnds, len(st.out))
			return err
		},
	}
}

// emitMatches emits out in ascending probe index, in morsels of chunk rows.
// Each leaf call appended one run of matches ascending by probe index, and
// a probe row's matches all lie in one run in build order, so a k-way merge
// of the runs by probe index restores exactly the serial probe emit order
// in O(n log k) time and O(k) memory beyond the morsel being filled.
func (st *graceState) emitMatches(ctx *execContext, chunk int, emit func(morsel) error) error {
	h := &matchRuns{out: st.out}
	start := 0
	for _, end := range st.runEnds {
		if end > start {
			h.runs = append(h.runs, [2]int{start, end})
		}
		start = end
	}
	heap.Init(h)
	rows := make([][]Value, 0, min(chunk, len(st.out)))
	for h.Len() > 0 {
		r := &h.runs[0]
		for li := st.out[r[0]].li; r[0] < r[1] && st.out[r[0]].li == li; r[0]++ {
			if len(rows) == chunk {
				if err := ctx.err(); err != nil {
					return err
				}
				if err := emit(morsel{rows: rows}); err != nil {
					return err
				}
				rows = make([][]Value, 0, chunk)
			}
			rows = append(rows, st.out[r[0]].row)
		}
		if r[0] == r[1] {
			heap.Pop(h)
		} else {
			heap.Fix(h, 0)
		}
	}
	if len(rows) == 0 {
		return nil
	}
	return emit(morsel{rows: rows})
}

// matchRuns is a min-heap of match runs, each a [next, end) range of out,
// keyed by the probe index of its next match. Runs never share a probe
// index, so the order is total.
type matchRuns struct {
	out  []graceRow
	runs [][2]int
}

func (h *matchRuns) Len() int           { return len(h.runs) }
func (h *matchRuns) Less(a, b int) bool { return h.out[h.runs[a][0]].li < h.out[h.runs[b][0]].li }
func (h *matchRuns) Swap(a, b int)      { h.runs[a], h.runs[b] = h.runs[b], h.runs[a] }
func (h *matchRuns) Push(x any)         { h.runs = append(h.runs, x.([2]int)) }
func (h *matchRuns) Pop() any {
	r := h.runs[len(h.runs)-1]
	h.runs = h.runs[:len(h.runs)-1]
	return r
}

// graceLeaf is the terminal in-memory build/probe over one partition.
// build rows arrive in ascending original order (partition files preserve
// input order), so posting lists are ascending and matches for each probe
// row are emitted exactly as the unpartitioned join would.
func (ctx *execContext) graceLeaf(build, probe []idxRow, st *graceState) error {
	index := make(map[string][]int, len(build))
	keyBuf := make([]Value, len(st.keys))
	var scratch []byte
	for bi, br := range build {
		kb, null := encodeJoinKey(scratch[:0], br.row, st.rightCol, len(st.keys), keyBuf)
		scratch = kb
		if null {
			continue
		}
		index[string(kb)] = append(index[string(kb)], bi)
	}
	for pi, pr := range probe {
		if pi%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				return err
			}
		}
		kb, null := encodeJoinKey(scratch[:0], pr.row, st.leftCol, len(st.keys), keyBuf)
		scratch = kb
		if null {
			continue
		}
	leafMatches:
		for _, bi := range index[string(kb)] {
			row := appendKept(appendKept(make([]Value, 0, st.width), pr.row, st.keepL), build[bi].row, st.keepR)
			for _, fn := range st.resFns {
				v, err := fn(row)
				if err != nil {
					// This leaf scans pairs in (left, build) order, so its
					// first failure is its minimum; record it and let the
					// other partitions run — one of them may hold an even
					// earlier failing pair.
					st.noteResidualErr(pr.idx, build[bi].idx, err)
					return nil
				}
				if !v.Truthy() {
					continue leafMatches
				}
			}
			st.matchedLeft[pr.idx] = true
			st.matchedRight[build[bi].idx] = true
			st.out = append(st.out, graceRow{li: pr.idx, row: row})
		}
	}
	return nil
}

// idxCodec is one join side's record codec: the row's original position,
// then the row narrowed to cols (nil: the whole row). The partition key is
// the join key over keyCol; a NULL key drops the row, since it can never
// match and the matched flag it never sets drives the outer-join padding.
type idxCodec struct {
	keyCol func(int) int
	cols   []int
	keyBuf []Value // one slot per key column
}

func newIdxCodec(keyCol func(int) int, nKeys int, cols []int) *idxCodec {
	return &idxCodec{keyCol: keyCol, cols: cols, keyBuf: make([]Value, nKeys)}
}

func (c *idxCodec) key(dst []byte, r idxRow) ([]byte, bool) {
	kb, null := encodeJoinKey(dst, r.row, c.keyCol, len(c.keyBuf), c.keyBuf)
	return kb, !null
}

func (c *idxCodec) encode(dst []byte, r idxRow) []byte {
	return appendRowCols(binary.AppendUvarint(dst, uint64(r.idx)), r.row, c.cols)
}

func (c *idxCodec) decode(rec []byte) (idxRow, error) {
	idx, rest, err := decodeIdx(rec)
	if err != nil {
		return idxRow{}, err
	}
	row, _, err := DecodeRow(rest)
	return idxRow{idx: idx, row: row}, err
}

// estIdxRowsBytes estimates the in-memory footprint of tagged rows.
func estIdxRowsBytes(rows []idxRow) int64 {
	var n int64
	for i := range rows {
		n += estRowBytes(rows[i].row) + 8
	}
	return n
}
