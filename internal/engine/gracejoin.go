package engine

import (
	"encoding/binary"
	"fmt"
	"io"

	"flexdp/internal/spill"
)

// Grace-style partitioned hash join: when the build side exceeds the memory
// budget, both inputs are hash-partitioned into spill files — rows with
// equal join keys land in the same partition — and each partition is joined
// independently with an in-memory build over the (now budget-sized)
// partition. Skewed partitions that still exceed the budget are recursively
// re-partitioned with a level-salted hash; a partition that stops shrinking
// (every row sharing one key) is joined in memory regardless, since no hash
// can split it.
//
// Determinism: the in-memory join emits matches ordered by (left row,
// build row) — probe rows are scanned in order and every posting list holds
// ascending build positions. The Grace join reproduces exactly that order:
// partition files preserve input order, so within a partition matches are
// emitted ascending by (left index, build index), and because each left row
// joins entirely inside one partition, a final stable sort on the left
// index restores the global order. Rows round-trip through the exact Value
// codec, so the output is bit-identical to the in-memory path.

const (
	// graceFanoutMin/Max bound the partition fan-out per level.
	graceFanoutMin = 4
	graceFanoutMax = 32
	// graceMaxDepth bounds recursive re-partitioning; beyond it a partition
	// is joined in memory even over budget (and counted in the stats).
	graceMaxDepth = 6
)

// idxRow is a row tagged with its position in the original relation, so
// matched-flag updates and output ordering survive partitioning.
type idxRow struct {
	idx int
	row []Value
}

// graceRow is one emitted combined row tagged with its left-row index for
// the final order-restoring sort.
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
	out          []graceRow
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

// graceNode joins one partition of level ≥ 1 (graceJoinOp partitions level
// 0): either in memory (fits budget, max depth, or irreducible skew) or by
// re-partitioning to disk.
func (ctx *execContext) graceNode(level int, build, probe []idxRow, parentBuildLen int, st *graceState) error {
	if err := ctx.err(); err != nil {
		return err
	}
	est := estIdxRowsBytes(build)
	over := ctx.spill.ShouldSpill(est)
	if !over || level >= graceMaxDepth || len(build) >= parentBuildLen {
		if over {
			ctx.spill.NoteOverBudgetBuild()
		}
		return ctx.graceLeaf(build, probe, st)
	}

	fanout := graceFanout(est, ctx.spill.Budget())
	ctx.spill.NoteJoinRecursion(fanout)
	buildRuns, err := ctx.gracePartitionSide(build, st.rightCol, len(st.keys), level, fanout, nil)
	if err != nil {
		return err
	}
	probeRuns, err := ctx.gracePartitionSide(probe, st.leftCol, len(st.keys), level, fanout, nil)
	if err != nil {
		return err
	}
	for p := 0; p < fanout; p++ {
		if buildRuns[p].Records == 0 || probeRuns[p].Records == 0 {
			// No matches possible (outer padding reads the flags); skip the
			// decode of the non-empty side entirely.
			buildRuns[p].Release()
			probeRuns[p].Release()
			continue
		}
		bPart, err := readIdxRows(buildRuns[p])
		if err != nil {
			return err
		}
		pPart, err := readIdxRows(probeRuns[p])
		if err != nil {
			return err
		}
		if err := ctx.graceNode(level+1, bPart, pPart, len(build), st); err != nil {
			return err
		}
	}
	return nil
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

// gracePartitionSide hash-partitions one side's rows into fanout spill
// runs. Rows with NULL join keys are dropped — they can never match, and
// the matched flags they would never set drive the outer-join padding. A
// non-nil cols narrows each record to those columns of the row.
func (ctx *execContext) gracePartitionSide(rows []idxRow, keyCol func(int) int, nKeys, level, fanout int, cols []int) ([]*spill.Run, error) {
	writers, abort, err := ctx.newPartitionWriters(fanout)
	if err != nil {
		return nil, err
	}
	keyBuf := make([]Value, nKeys)
	var keyScratch, recScratch []byte
	var rowScratch []Value
	for i, r := range rows {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				abort()
				return nil, err
			}
		}
		kb, null := encodeJoinKey(keyScratch[:0], r.row, keyCol, nKeys, keyBuf)
		keyScratch = kb
		if null {
			continue
		}
		p := int(graceHash(kb, level) % uint64(fanout))
		recScratch = binary.AppendUvarint(recScratch[:0], uint64(r.idx))
		rowScratch = appendKept(rowScratch[:0], r.row, cols)
		recScratch = AppendRow(recScratch, rowScratch)
		if err := writers[p].Write(recScratch); err != nil {
			abort()
			return nil, err
		}
	}
	return finishPartitionWriters(writers, abort)
}

// readIdxRows loads one partition run back into memory (Open already
// unlinked the file; closing the reader frees the disk space).
func readIdxRows(run *spill.Run) ([]idxRow, error) {
	r, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]idxRow, 0, run.Records)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		idx, n := binary.Uvarint(rec)
		if n <= 0 {
			return nil, fmt.Errorf("engine: corrupt spill record index")
		}
		row, _, err := DecodeRow(rec[n:])
		if err != nil {
			return nil, err
		}
		out = append(out, idxRow{idx: int(idx), row: row})
	}
	return out, nil
}

// graceHash hashes an encoded join key with a per-level salt, so a skewed
// partition re-partitions along fresh boundaries instead of collapsing into
// one bucket again. Independent of buildShard's unsalted FNV-32.
func graceHash(key []byte, level int) uint64 {
	h := uint64(14695981039346656037) ^ (uint64(level)+1)*1099511628211
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// graceFanout sizes the partition fan-out so each partition's build side
// lands near half the budget, within [graceFanoutMin, graceFanoutMax].
func graceFanout(est, budget int64) int {
	if budget <= 0 {
		return graceFanoutMin
	}
	f := int(est/(budget/2+1)) + 1
	if f < graceFanoutMin {
		f = graceFanoutMin
	}
	if f > graceFanoutMax {
		f = graceFanoutMax
	}
	return f
}

// estIdxRowsBytes estimates the in-memory footprint of tagged rows.
func estIdxRowsBytes(rows []idxRow) int64 {
	var n int64
	for i := range rows {
		n += estRowBytes(rows[i].row) + 8
	}
	return n
}
