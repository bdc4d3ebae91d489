package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"flexdp/internal/spill"
	"flexdp/internal/sqlparser"
)

// Partitioned (spilled) grouped aggregation, plus the budget-bounded
// variants of DISTINCT dedup and set-operation key sets. All three share
// the Grace join's partitioning pattern (gracejoin.go): hash the state key
// with a level-salted FNV, write records to fanout spill runs, process
// partition by partition, and recursively re-partition skewed partitions —
// a partition that stops shrinking (one key) is processed in memory over
// budget and counted in the stats.
//
// Determinism: partition files preserve input order, and every group (or
// dedupe/set-op key) lives entirely inside one partition at every level.
// For aggregation that means a group's rows are recovered in global scan
// order — so foldAggregate sees exactly the value sequence the serial path
// collects, including DISTINCT first occurrences — and tagging each group
// with its first row's original position lets a final sort restore the
// global first-appearance group order. HAVING, the select list, and ORDER
// BY keys are evaluated per group by the same groupEnv as the serial path,
// so results are bit-identical to the in-memory aggregation at any worker
// count, and evaluation errors are surfaced for the minimum-first-position
// group — the one the serial group loop would have hit first.

// aggRec is one spilled aggregation input row: its original scan position,
// the evaluated GROUP BY key values, and the row itself. Key values ride
// along so deeper partitioning levels and the per-partition grouping never
// re-evaluate key expressions.
type aggRec struct {
	idx     int
	keyVals []Value
	row     []Value
}

// aggOutGroup is one emitted group's output, tagged with the group's
// first-appearance position for the final order-restoring sort.
type aggOutGroup struct {
	firstIdx int
	row      []Value
	key      []Value // ORDER BY sort key (nil when the statement has none)
}

// aggSpillState carries the spilled aggregation's immutable configuration
// and accumulates emitted groups across partitions.
type aggSpillState struct {
	stmt     *sqlparser.SelectStmt
	rel      *relation
	cache    *exprCache
	outCols  []string
	needSort bool
	out      []aggOutGroup
	// evalErr tracks the evaluation error of the smallest first-appearance
	// group position seen so far: the serial path evaluates groups in
	// first-appearance order and stops at the first failure, so the
	// minimum across partitions is the error it would surface.
	evalErr    error
	evalErrIdx int
}

// noteEvalErr records a group-evaluation failure if its group precedes the
// current candidate in serial evaluation order.
func (st *aggSpillState) noteEvalErr(firstIdx int, err error) {
	if st.evalErr == nil || firstIdx < st.evalErrIdx {
		st.evalErr, st.evalErrIdx = err, firstIdx
	}
}

// drainAggSpill aggregates the level-0 partition runs and assembles the
// final result; totalRows is the number of input rows partitioned (the
// parentLen bound for skew detection), written by the streaming sink's
// spill path (executeAggSpillStream in aggstream.go).
func (ctx *execContext) drainAggSpill(stmt *sqlparser.SelectStmt, rel *relation,
	runs []*spill.Run, totalRows int) (*ResultSet, [][]Value, error) {
	fanout := len(runs)
	var names []string
	for i, item := range stmt.Columns {
		names = append(names, outputName(item, i))
	}
	st := &aggSpillState{stmt: stmt, rel: rel, cache: newExprCache(),
		outCols: names, needSort: len(stmt.OrderBy) > 0}
	// Level-0 partitions are disjoint by construction (every group lives in
	// exactly one), so they drain in parallel: each partition aggregates into
	// a private state and the states merge in partition order. The merge
	// order is irrelevant to results — the final firstIdx sort restores the
	// global group order, and evalErr keeps the minimum first-appearance
	// group across partitions either way. IO errors surface with runSpans'
	// lowest-partition rule, which is the partition the serial loop would
	// have failed on first; as in the serial loop, an IO error wins over
	// evaluation errors noted in other partitions because those are only
	// consulted after every partition drains cleanly. The spill manager and
	// exprCache are mutex-guarded, so workers share them safely.
	states := make([]*aggSpillState, fanout)
	if err := ctx.runSpans(morselSpans(fanout, 1), ctx.workers, func(_, p int, _ span) error {
		if runs[p].Records == 0 {
			runs[p].Release()
			return nil
		}
		recs, err := readAggRecs(runs[p])
		if err != nil {
			return err
		}
		ps := &aggSpillState{stmt: stmt, rel: rel, cache: st.cache,
			outCols: names, needSort: st.needSort}
		if err := ctx.aggSpillNode(1, recs, totalRows, ps); err != nil {
			return err
		}
		states[p] = ps
		return nil
	}); err != nil {
		return nil, nil, err
	}
	for _, ps := range states {
		if ps == nil {
			continue
		}
		st.out = append(st.out, ps.out...)
		if ps.evalErr != nil {
			st.noteEvalErr(ps.evalErrIdx, ps.evalErr)
		}
	}
	if st.evalErr != nil {
		return nil, nil, st.evalErr
	}

	// Each group appears in exactly one partition and carries a unique
	// first-appearance position, so sorting on it restores the global
	// first-appearance group order of the serial path.
	sort.Slice(st.out, func(a, b int) bool { return st.out[a].firstIdx < st.out[b].firstIdx })

	out := &ResultSet{Columns: names}
	var sortKeys [][]Value
	for i := range st.out {
		out.Rows = append(out.Rows, st.out[i].row)
		if st.needSort {
			sortKeys = append(sortKeys, st.out[i].key)
		}
	}
	return out, sortKeys, nil
}

// aggSpillNode aggregates one partition: either in memory (fits budget, max
// depth, or irreducible skew) or by re-partitioning another level.
func (ctx *execContext) aggSpillNode(level int, recs []aggRec, parentLen int, st *aggSpillState) error {
	if err := ctx.err(); err != nil {
		return err
	}
	est := estAggRecsBytes(recs)
	over := ctx.spill.ShouldSpill(est)
	if !over || level >= graceMaxDepth || len(recs) >= parentLen {
		if over {
			ctx.spill.NoteOverBudgetAgg()
		}
		return ctx.aggSpillLeaf(recs, st)
	}

	fanout := graceFanout(est, ctx.spill.Budget())
	ctx.spill.NoteAggRecursion(fanout)
	writers, abort, err := ctx.newPartitionWriters(fanout)
	if err != nil {
		return err
	}
	var keyScratch, recScratch []byte
	for _, r := range recs {
		keyScratch = AppendRowKey(keyScratch[:0], r.keyVals)
		p := int(graceHash(keyScratch, level) % uint64(fanout))
		recScratch = binary.AppendUvarint(recScratch[:0], uint64(r.idx))
		recScratch = AppendRow(recScratch, r.keyVals)
		recScratch = AppendRow(recScratch, r.row)
		if err := writers[p].Write(recScratch); err != nil {
			abort()
			return err
		}
	}
	runs, err := finishPartitionWriters(writers, abort)
	if err != nil {
		return err
	}
	for p := 0; p < fanout; p++ {
		if runs[p].Records == 0 {
			runs[p].Release()
			continue
		}
		part, err := readAggRecs(runs[p])
		if err != nil {
			return err
		}
		if err := ctx.aggSpillNode(level+1, part, len(recs), st); err != nil {
			return err
		}
	}
	return nil
}

// aggSpillLeaf groups one partition's records and evaluates HAVING, the
// select list, and ORDER BY keys per group. Records arrive in ascending
// original position (partition files preserve input order), so each
// group's rows are in global scan order and groups are discovered in
// ascending first-appearance order — a leaf's first evaluation error is
// therefore its minimum, mirroring graceLeaf's residual-error handling.
func (ctx *execContext) aggSpillLeaf(recs []aggRec, st *aggSpillState) error {
	type sGroup struct {
		keyVals  []Value
		firstIdx int
		rows     [][]Value
	}
	index := make(map[string]*sGroup)
	var order []*sGroup
	var scratch []byte
	for _, r := range recs {
		scratch = AppendRowKey(scratch[:0], r.keyVals)
		g, ok := index[string(scratch)]
		if !ok {
			g = &sGroup{keyVals: r.keyVals, firstIdx: r.idx}
			index[string(scratch)] = g
			order = append(order, g)
		}
		g.rows = append(g.rows, r.row)
	}
	stmt := st.stmt
	for _, g := range order {
		genv := &groupEnv{ctx: ctx, rel: st.rel, rows: g.rows, groupBy: stmt.GroupBy,
			keyVals: g.keyVals, cache: st.cache}
		outG := aggOutGroup{firstIdx: g.firstIdx}
		if stmt.Having != nil {
			hv, err := genv.eval(stmt.Having)
			if err != nil {
				st.noteEvalErr(g.firstIdx, err)
				return nil
			}
			if !hv.Truthy() {
				continue
			}
		}
		row := make([]Value, len(stmt.Columns))
		for i, item := range stmt.Columns {
			v, err := genv.eval(item.Expr)
			if err != nil {
				st.noteEvalErr(g.firstIdx, err)
				return nil
			}
			row[i] = v
		}
		outG.row = row
		if st.needSort {
			// Alias/positional ORDER BY references resolve against the
			// output columns, which sortKey reads off this view.
			key, err := genv.sortKey(stmt.OrderBy, &ResultSet{Columns: st.outCols}, row)
			if err != nil {
				st.noteEvalErr(g.firstIdx, err)
				return nil
			}
			outG.key = key
		}
		st.out = append(st.out, outG)
	}
	return nil
}

// newPartitionWriters opens fanout spill runs, returning the writers plus
// an abort closure that discards all of them on error.
func (ctx *execContext) newPartitionWriters(fanout int) ([]*spill.RunWriter, func(), error) {
	writers := make([]*spill.RunWriter, fanout)
	abort := func() {
		for _, w := range writers {
			if w != nil {
				w.Abort()
			}
		}
	}
	for i := range writers {
		w, err := ctx.spill.NewRun()
		if err != nil {
			abort()
			return nil, nil, err
		}
		writers[i] = w
	}
	return writers, abort, nil
}

// finishPartitionWriters finalizes every writer into a consumable run.
func finishPartitionWriters(writers []*spill.RunWriter, abort func()) ([]*spill.Run, error) {
	runs := make([]*spill.Run, len(writers))
	for i, w := range writers {
		run, err := w.Finish()
		if err != nil {
			writers[i] = nil
			abort()
			return nil, err
		}
		writers[i] = nil
		runs[i] = run
	}
	return runs, nil
}

// readAggRecs loads one aggregation partition back into memory.
func readAggRecs(run *spill.Run) ([]aggRec, error) {
	r, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]aggRec, 0, run.Records)
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
		keyVals, kn, err := DecodeRow(rec[n:])
		if err != nil {
			return nil, err
		}
		row, _, err := DecodeRow(rec[n+kn:])
		if err != nil {
			return nil, err
		}
		out = append(out, aggRec{idx: int(idx), keyVals: keyVals, row: row})
	}
	return out, nil
}

// estAggRecsBytes estimates the in-memory aggregation state of a partition:
// the group row lists plus key values per record.
func estAggRecsBytes(recs []aggRec) int64 {
	var n int64
	for i := range recs {
		n += estRowBytes(recs[i].row) + estRowBytes(recs[i].keyVals) + 16
	}
	return n
}

// ---- Budget-bounded DISTINCT and set-operation key state ----
//
// dedupeRows and applySetOp hold hash sets keyed by whole output rows; a
// high-cardinality input makes that state arbitrarily large. The spilled
// variants partition (position, row-key) records by key hash, process each
// partition with a partition-local map, and restore the output order by
// sorting surviving positions — every occurrence of a key lands in one
// partition in input order, so keep-first dedup and the multiset ALL
// arithmetic are computed exactly as the in-memory loops compute them.

// keyRec is one spilled dedupe/set-op record: an input position tagged
// with its encoded row key. Records whose position is never consulted —
// the right side of a set operation contributes only multiplicities —
// are written without it (withIdx=false; idx reads back as 0).
type keyRec struct {
	idx int
	key []byte
}

// spillRowKeys streams (position, row-key) records for rows into fanout
// level-salted partition runs.
func (ctx *execContext) spillRowKeys(rows [][]Value, level, fanout int, withIdx bool) ([]*spill.Run, error) {
	writers, abort, err := ctx.newPartitionWriters(fanout)
	if err != nil {
		return nil, err
	}
	var keyScratch, recScratch []byte
	for idx, row := range rows {
		if idx%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				abort()
				return nil, err
			}
		}
		keyScratch = AppendRowKey(keyScratch[:0], row)
		p := int(graceHash(keyScratch, level) % uint64(fanout))
		recScratch = recScratch[:0]
		if withIdx {
			recScratch = binary.AppendUvarint(recScratch, uint64(idx))
		}
		recScratch = append(recScratch, keyScratch...)
		if err := writers[p].Write(recScratch); err != nil {
			abort()
			return nil, err
		}
	}
	return finishPartitionWriters(writers, abort)
}

// spillKeyRecs re-partitions already-materialized records one level deeper.
func (ctx *execContext) spillKeyRecs(recs []keyRec, level, fanout int, withIdx bool) ([]*spill.Run, error) {
	writers, abort, err := ctx.newPartitionWriters(fanout)
	if err != nil {
		return nil, err
	}
	var recScratch []byte
	for i, r := range recs {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				abort()
				return nil, err
			}
		}
		p := int(graceHash(r.key, level) % uint64(fanout))
		recScratch = recScratch[:0]
		if withIdx {
			recScratch = binary.AppendUvarint(recScratch, uint64(r.idx))
		}
		recScratch = append(recScratch, r.key...)
		if err := writers[p].Write(recScratch); err != nil {
			abort()
			return nil, err
		}
	}
	return finishPartitionWriters(writers, abort)
}

// readKeyRecs loads one dedupe/set-op partition back into memory.
func readKeyRecs(run *spill.Run, withIdx bool) ([]keyRec, error) {
	r, err := run.Open()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := make([]keyRec, 0, run.Records)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		idx := 0
		if withIdx {
			v, n := binary.Uvarint(rec)
			if n <= 0 {
				return nil, fmt.Errorf("engine: corrupt spill record index")
			}
			idx, rec = int(v), rec[n:]
		}
		out = append(out, keyRec{idx: idx, key: append([]byte(nil), rec...)})
	}
	return out, nil
}

// estKeyRecsBytes estimates the key-set state of a partition: map keys plus
// bucket overhead per record.
func estKeyRecsBytes(recs []keyRec) int64 {
	var n int64
	for i := range recs {
		n += int64(len(recs[i].key)) + 48
	}
	return n
}

// dedupeRowsSpilled is the out-of-core keep-first dedup: partition rows by
// row-key hash, dedupe each partition with a partition-local seen set, and
// sort surviving positions to restore input order.
func (ctx *execContext) dedupeRowsSpilled(out *ResultSet, sortKeys [][]Value) (*ResultSet, [][]Value, error) {
	fanout := graceFanout(estRowsBytes(out.Rows), ctx.spill.Budget())
	ctx.spill.NoteDistinctSpill(fanout)
	runs, err := ctx.spillRowKeys(out.Rows, 0, fanout, true)
	if err != nil {
		return nil, nil, err
	}
	var survivors []int
	for p := range runs {
		if runs[p].Records == 0 {
			runs[p].Release()
			continue
		}
		recs, err := readKeyRecs(runs[p], true)
		if err != nil {
			return nil, nil, err
		}
		survivors, err = ctx.dedupeNode(1, recs, len(out.Rows), survivors)
		if err != nil {
			return nil, nil, err
		}
	}
	sort.Ints(survivors)
	rows := make([][]Value, 0, len(survivors))
	var keys [][]Value
	if sortKeys != nil {
		keys = make([][]Value, 0, len(survivors))
	}
	for _, idx := range survivors {
		rows = append(rows, out.Rows[idx])
		if sortKeys != nil {
			keys = append(keys, sortKeys[idx])
		}
	}
	out.Rows = rows
	if sortKeys == nil {
		return out, nil, nil
	}
	return out, keys, nil
}

// dedupeNode dedupes one partition, re-partitioning skewed ones. Records
// arrive in ascending position, so the partition-local first occurrence of
// a key is its global first occurrence.
func (ctx *execContext) dedupeNode(level int, recs []keyRec, parentLen int, survivors []int) ([]int, error) {
	if err := ctx.err(); err != nil {
		return nil, err
	}
	est := estKeyRecsBytes(recs)
	if !ctx.spill.ShouldSpill(est) || level >= graceMaxDepth || len(recs) >= parentLen {
		// Irreducible skew here means duplicate-heavy input, which the seen
		// set compresses anyway; the estimate errs conservatively, so no
		// over-budget counter (unlike joins, there is no hard state blowup).
		seen := make(map[string]bool, len(recs))
		for _, r := range recs {
			if seen[string(r.key)] {
				continue
			}
			seen[string(r.key)] = true
			survivors = append(survivors, r.idx)
		}
		return survivors, nil
	}
	fanout := graceFanout(est, ctx.spill.Budget())
	ctx.spill.NoteDedupeRecursion(fanout)
	runs, err := ctx.spillKeyRecs(recs, level, fanout, true)
	if err != nil {
		return nil, err
	}
	for p := range runs {
		if runs[p].Records == 0 {
			runs[p].Release()
			continue
		}
		part, err := readKeyRecs(runs[p], true)
		if err != nil {
			return nil, err
		}
		survivors, err = ctx.dedupeNode(level+1, part, len(recs), survivors)
		if err != nil {
			return nil, err
		}
	}
	return survivors, nil
}

// setOpSpilled evaluates INTERSECT/EXCEPT (with or without ALL) out of
// core: both sides partition by row-key hash at the same level-0 salt, so
// each key's left occurrences meet exactly its right multiplicities in one
// partition; surviving left positions sort to restore input order.
func (ctx *execContext) setOpSpilled(left, right *ResultSet, kind sqlparser.SetOpKind, all bool) (*ResultSet, error) {
	fanout := graceFanout(estRowsBytes(left.Rows)+estRowsBytes(right.Rows), ctx.spill.Budget())
	ctx.spill.NoteSetOpSpill(fanout)
	leftRuns, err := ctx.spillRowKeys(left.Rows, 0, fanout, true)
	if err != nil {
		return nil, err
	}
	rightRuns, err := ctx.spillRowKeys(right.Rows, 0, fanout, false)
	if err != nil {
		return nil, err
	}
	var survivors []int
	for p := 0; p < fanout; p++ {
		if leftRuns[p].Records == 0 ||
			(kind == sqlparser.SetIntersect && rightRuns[p].Records == 0) {
			// No left rows means no output from this partition regardless
			// of the operation, and an intersect against an empty right
			// side keeps nothing; skip decoding the other side entirely.
			leftRuns[p].Release()
			rightRuns[p].Release()
			continue
		}
		lrecs, err := readKeyRecs(leftRuns[p], true)
		if err != nil {
			return nil, err
		}
		rrecs, err := readKeyRecs(rightRuns[p], false)
		if err != nil {
			return nil, err
		}
		survivors, err = ctx.setOpNode(1, lrecs, rrecs, len(left.Rows)+len(right.Rows), kind, all, survivors)
		if err != nil {
			return nil, err
		}
	}
	sort.Ints(survivors)
	out := &ResultSet{Columns: left.Columns, Rows: make([][]Value, 0, len(survivors))}
	for _, idx := range survivors {
		out.Rows = append(out.Rows, left.Rows[idx])
	}
	return out, nil
}

// setOpNode applies the set operation to one partition's left and right
// records, re-partitioning skewed ones. setOpKeep encodes the per-key
// decision shared with the in-memory loop in exec.go.
func (ctx *execContext) setOpNode(level int, lrecs, rrecs []keyRec, parentLen int, kind sqlparser.SetOpKind, all bool, survivors []int) ([]int, error) {
	if err := ctx.err(); err != nil {
		return nil, err
	}
	est := estKeyRecsBytes(lrecs) + estKeyRecsBytes(rrecs)
	if !ctx.spill.ShouldSpill(est) || level >= graceMaxDepth || len(lrecs)+len(rrecs) >= parentLen {
		counts := make(map[string]int, len(rrecs))
		for _, r := range rrecs {
			counts[string(r.key)]++
		}
		var seen map[string]bool
		if !all {
			seen = make(map[string]bool, len(lrecs))
		}
		for _, l := range lrecs {
			if setOpKeep(kind, all, string(l.key), counts, seen) {
				survivors = append(survivors, l.idx)
			}
		}
		return survivors, nil
	}
	fanout := graceFanout(est, ctx.spill.Budget())
	ctx.spill.NoteDedupeRecursion(fanout)
	leftRuns, err := ctx.spillKeyRecs(lrecs, level, fanout, true)
	if err != nil {
		return nil, err
	}
	rightRuns, err := ctx.spillKeyRecs(rrecs, level, fanout, false)
	if err != nil {
		return nil, err
	}
	for p := 0; p < fanout; p++ {
		if leftRuns[p].Records == 0 ||
			(kind == sqlparser.SetIntersect && rightRuns[p].Records == 0) {
			leftRuns[p].Release()
			rightRuns[p].Release()
			continue
		}
		lpart, err := readKeyRecs(leftRuns[p], true)
		if err != nil {
			return nil, err
		}
		rpart, err := readKeyRecs(rightRuns[p], false)
		if err != nil {
			return nil, err
		}
		survivors, err = ctx.setOpNode(level+1, lpart, rpart, len(lrecs)+len(rrecs), kind, all, survivors)
		if err != nil {
			return nil, err
		}
	}
	return survivors, nil
}
