package engine

import (
	"encoding/binary"
	"sort"
	"sync"

	"flexdp/internal/spill"
	"flexdp/internal/sqlparser"
)

// Partitioned (spilled) grouped aggregation, plus the budget-bounded
// variants of DISTINCT dedup and set-operation key sets. Each is a record
// codec and a leaf over the recursive partitioner (partition.go), keyed on
// the group key or the whole row's key. An aggregation record carries the
// input row narrowed to the columns the leaf reads (aggLeafCols), so a
// COUNT(*) grouped on computed keys writes position and key values only.
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
// the evaluated GROUP BY key values, and the row — at level 0 the whole
// input row, below it the row narrowed to the columns the leaf reads
// (aggLeafCols). Key values ride along so deeper partitioning levels and
// the per-partition grouping never re-evaluate key expressions.
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
	// mu guards out and the evalErr pair: level-0 partitions drain in
	// parallel, each leaf merging its groups once it finishes.
	mu  sync.Mutex
	out []aggOutGroup
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
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.evalErr == nil || firstIdx < st.evalErrIdx {
		st.evalErr, st.evalErrIdx = err, firstIdx
	}
}

// executeAggSpillStream is the spilled grouped aggregation. It streams
// morsels into the level-0 partition runs — workers evaluate the GROUP BY
// keys per selected row (only the keys: argument evaluation waits for the
// leaf), and the ordered consumer routes each row's record tagged with its
// running input position — then drains them through the partitioner into
// aggSpillLeaf and restores the serial group order.
func (ctx *execContext) executeAggSpillStream(stmt *sqlparser.SelectStmt, p *pipeline) (*ResultSet, [][]Value, error) {
	rel := p.rel
	keyFns := make([]evalFn, len(stmt.GroupBy))
	for i, e := range stmt.GroupBy {
		fn, err := compileExpr(rel, ctx, e)
		if err != nil {
			return nil, nil, err
		}
		keyFns[i] = fn
	}
	var names []string
	for i, item := range stmt.Columns {
		names = append(names, outputName(item, i))
	}
	// Level-0 records carry only the columns the leaf reads, and the leaf
	// resolves names against the relation narrowed the same way.
	cols := aggLeafCols(stmt, rel, names)
	leafRel := rel
	if cols != nil {
		leafRel = &relation{cols: make([]relCol, len(cols))}
		for i, c := range cols {
			leafRel.cols[i] = rel.cols[c]
		}
		// The leaves compile against it concurrently, and these two fill
		// lazily.
		leafRel.index()
		leafRel.layoutSig()
	}
	fanout := graceFanout(estRowsBytes(p.src.rows), ctx.spill.Budget())
	ctx.spill.NoteAggSpill(fanout)
	ctx.pstats.breaker(0) // partitioned grouping state lives on disk
	w, err := newPartWriter[aggRec](ctx, aggCodec{cols: cols}, 0, fanout)
	if err != nil {
		return nil, nil, err
	}

	type keyedMorsel struct {
		rows    [][]Value
		keyVals [][]Value
	}
	produce := func(_ int, m morsel) (any, error) {
		rows := m.dense()
		keyVals := make([][]Value, len(rows))
		for i, row := range rows {
			kv := make([]Value, len(keyFns))
			for k, fn := range keyFns {
				v, err := fn(row)
				if err != nil {
					return nil, err
				}
				kv[k] = v
			}
			keyVals[i] = kv
		}
		return keyedMorsel{rows: rows, keyVals: keyVals}, nil
	}
	consume := func(payload any) error {
		km := payload.(keyedMorsel)
		//flexlint:ignore ctxpoll one keyedMorsel holds one morsel's rows; the pipeline driver polls between consume calls
		for i, row := range km.rows {
			// w.n counts the rows routed so far: this row's input position.
			if err := w.write(aggRec{idx: w.n, keyVals: km.keyVals[i], row: row}); err != nil {
				return err
			}
		}
		return nil
	}
	produce, atrace := ctx.prof.sink("aggregate_spill", produce)
	if err := p.run(ctx, true, produce, consume); err != nil {
		w.abort()
		return nil, nil, err
	}
	runs, err := w.finish()
	if err != nil {
		return nil, nil, err
	}

	st := &aggSpillState{stmt: stmt, rel: leafRel, cache: newExprCache(),
		outCols: names, needSort: len(stmt.OrderBy) > 0}
	// Level-0 partitions are disjoint by construction (every group lives in
	// exactly one), so they drain in parallel, every leaf merging into st.
	// The merge order is irrelevant to results — the final firstIdx sort
	// restores the global group order, and evalErr keeps the minimum
	// first-appearance group across partitions either way. IO errors surface
	// with runSpans' lowest-partition rule, which is the partition a serial
	// drain would have failed on first; an IO error wins over evaluation
	// errors noted in other partitions because those are only consulted
	// after every partition drains cleanly. The spill manager and exprCache
	// are mutex-guarded, so workers share them safely.
	pt := &partition[aggRec]{codecs: []partCodec[aggRec]{aggCodec{}},
		size: estAggRecsBytes, sized: 1, need: 1, parallel: true,
		noteRecursion: ctx.spill.NoteAggRecursion, noteOverBudget: ctx.spill.NoteOverBudgetAgg,
		leaf: func(s [][]aggRec) error { return ctx.aggSpillLeaf(s[0], st) }}
	if err := pt.drain(ctx, 1, [][]*spill.Run{runs}, w.n); err != nil {
		return nil, nil, err
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
	atrace.setRowsOut(len(out.Rows))
	return out, sortKeys, nil
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
	var out []aggOutGroup
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
		out = append(out, outG)
	}
	st.mu.Lock()
	st.out = append(st.out, out...)
	st.mu.Unlock()
	return nil
}

// aggCodec is the spilled aggregation's record codec: the row's input
// position, its GROUP BY key values, then the row narrowed to cols (nil: the
// whole row; records below level 0 are narrow already). The partition key is
// the key values' row key.
type aggCodec struct{ cols []int }

func (aggCodec) key(dst []byte, r aggRec) ([]byte, bool) { return AppendRowKey(dst, r.keyVals), true }

func (c aggCodec) encode(dst []byte, r aggRec) []byte {
	return appendRowCols(AppendRow(binary.AppendUvarint(dst, uint64(r.idx)), r.keyVals), r.row, c.cols)
}

// aggLeafCols lists, ascending, the columns of rel that aggSpillLeaf's
// groupEnv can read: those HAVING, the select list and the ORDER BY keys
// reference, less any of them groupEnv.eval answers from the key values (an
// expression equal to a GROUP BY expression) and ORDER BY keys sortKey reads
// off the output row (positions and output names). It returns nil — keep
// the whole row — when some reference does not resolve uniquely or an
// expression holds a subquery, so the leaf raises the serial path's errors.
// The set may exceed what a group reads, never fall short of it.
func aggLeafCols(stmt *sqlparser.SelectStmt, rel *relation, outNames []string) []int {
	read := make([]bool, len(rel.cols))
	ok := true
	need := func(e sqlparser.Expr) {
		for _, g := range stmt.GroupBy {
			if exprEqual(e, g) {
				return
			}
		}
		refs, rok := exprRefs(e, rel, false, nil)
		ok = ok && rok
		for _, i := range refs {
			if i >= 0 {
				read[i] = true
			}
		}
	}
	for _, item := range stmt.Columns {
		need(item.Expr)
	}
	if stmt.Having != nil {
		need(stmt.Having)
	}
	for _, item := range stmt.OrderBy {
		if !sortsOnOutput(item.Expr, outNames) {
			need(item.Expr)
		}
	}
	if !ok {
		return nil
	}
	cols := []int{} // non-nil: nil keeps the whole row
	for i, r := range read {
		if r {
			cols = append(cols, i)
		}
	}
	return cols
}

func (aggCodec) decode(rec []byte) (aggRec, error) {
	idx, rest, err := decodeIdx(rec)
	if err != nil {
		return aggRec{}, err
	}
	keyVals, n, err := DecodeRow(rest)
	if err != nil {
		return aggRec{}, err
	}
	row, _, err := DecodeRow(rest[n:])
	return aggRec{idx: idx, keyVals: keyVals, row: row}, err
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
// variants partition (position, row-key) records by key, process each
// partition with a partition-local map, and restore the output order by
// sorting surviving positions — every occurrence of a key lands in one
// partition in input order, so keep-first dedup and the multiset ALL
// arithmetic are computed exactly as the in-memory loops compute them.
// Their leaves note no over-budget state: irreducible skew means a
// duplicate-heavy partition, which the key map compresses anyway, and the
// estimate errs conservatively.

// keyRec is one spilled dedupe/set-op record: an input position tagged
// with its encoded row key.
type keyRec struct {
	idx int
	key []byte
}

// keyCodec is the dedupe/set-op record codec: the position (when withIdx),
// then the row key, which is also the partition key. The right side of a
// set operation contributes only multiplicities, so its records carry no
// position (idx reads back as 0).
type keyCodec struct{ withIdx bool }

func (keyCodec) key(dst []byte, r keyRec) ([]byte, bool) { return append(dst, r.key...), true }

func (c keyCodec) encode(dst []byte, r keyRec) []byte {
	if c.withIdx {
		dst = binary.AppendUvarint(dst, uint64(r.idx))
	}
	return append(dst, r.key...)
}

func (c keyCodec) decode(rec []byte) (keyRec, error) {
	idx := 0
	if c.withIdx {
		var err error
		if idx, rec, err = decodeIdx(rec); err != nil {
			return keyRec{}, err
		}
	}
	return keyRec{idx: idx, key: append([]byte(nil), rec...)}, nil
}

// spill partitions rows at level 0 as (position, row-key) records.
func (c keyCodec) spill(ctx *execContext, rows [][]Value, fanout int) ([]*spill.Run, error) {
	var key []byte
	return spillSide[keyRec](ctx, c, 0, fanout, len(rows), func(i int) keyRec {
		key = AppendRowKey(key[:0], rows[i])
		return keyRec{idx: i, key: key}
	})
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
// row key, dedupe each partition with a partition-local seen set, and sort
// surviving positions to restore input order.
func (ctx *execContext) dedupeRowsSpilled(out *ResultSet, sortKeys [][]Value) (*ResultSet, [][]Value, error) {
	var survivors []int
	codec := keyCodec{withIdx: true}
	pt := &partition[keyRec]{codecs: []partCodec[keyRec]{codec},
		size: estKeyRecsBytes, sized: 1, need: 1, noteRecursion: ctx.spill.NoteDedupeRecursion,
		// Records arrive in ascending position, so the partition-local first
		// occurrence of a key is its global first occurrence.
		leaf: func(s [][]keyRec) error {
			seen := make(map[string]bool, len(s[0]))
			for _, r := range s[0] {
				if !seen[string(r.key)] {
					seen[string(r.key)] = true
					survivors = append(survivors, r.idx)
				}
			}
			return nil
		}}
	fanout := graceFanout(estRowsBytes(out.Rows), ctx.spill.Budget())
	ctx.spill.NoteDistinctSpill(fanout)
	runs, err := codec.spill(ctx, out.Rows, fanout)
	if err != nil {
		return nil, nil, err
	}
	if err := pt.drain(ctx, 1, [][]*spill.Run{runs}, len(out.Rows)); err != nil {
		return nil, nil, err
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

// setOpSpilled evaluates INTERSECT/EXCEPT (with or without ALL) out of
// core: both sides partition by row key under the same salts, so each key's
// left occurrences meet exactly its right multiplicities in one partition;
// surviving left positions sort to restore input order. setOpKeep encodes
// the per-key decision shared with the in-memory loop in exec.go.
func (ctx *execContext) setOpSpilled(left, right *ResultSet, kind sqlparser.SetOpKind, all bool) (*ResultSet, error) {
	var survivors []int
	lc, rc := keyCodec{withIdx: true}, keyCodec{}
	pt := &partition[keyRec]{codecs: []partCodec[keyRec]{lc, rc},
		size: estKeyRecsBytes, sized: 2, need: 1, noteRecursion: ctx.spill.NoteDedupeRecursion,
		leaf: func(s [][]keyRec) error {
			counts := make(map[string]int, len(s[1]))
			for _, r := range s[1] {
				counts[string(r.key)]++
			}
			var seen map[string]bool
			if !all {
				seen = make(map[string]bool, len(s[0]))
			}
			for _, l := range s[0] {
				if setOpKeep(kind, all, string(l.key), counts, seen) {
					survivors = append(survivors, l.idx)
				}
			}
			return nil
		}}
	if kind == sqlparser.SetIntersect {
		pt.need = 2 // an intersect against an empty right side keeps nothing
	}
	fanout := graceFanout(estRowsBytes(left.Rows)+estRowsBytes(right.Rows), ctx.spill.Budget())
	ctx.spill.NoteSetOpSpill(fanout)
	leftRuns, err := lc.spill(ctx, left.Rows, fanout)
	if err != nil {
		return nil, err
	}
	rightRuns, err := rc.spill(ctx, right.Rows, fanout)
	if err != nil {
		return nil, err
	}
	if err := pt.drain(ctx, 1, [][]*spill.Run{leftRuns, rightRuns}, len(left.Rows)+len(right.Rows)); err != nil {
		return nil, err
	}
	sort.Ints(survivors)
	out := &ResultSet{Columns: left.Columns, Rows: make([][]Value, 0, len(survivors))}
	for _, idx := range survivors {
		out.Rows = append(out.Rows, left.Rows[idx])
	}
	return out, nil
}
