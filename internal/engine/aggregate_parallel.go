package engine

import (
	"fmt"

	"flexdp/internal/sqlparser"
)

// Morsel-parallel grouped aggregation.
//
// Phase 1 fans the input rows across workers in fixed-size morsels. Each
// morsel builds its own hash table of groups; for every row it evaluates the
// GROUP BY keys plus every aggregate call's argument expression, collecting
// the non-null (and, for DISTINCT, locally deduped) values per group in
// scan order, along with the group's row count and first row.
//
// The merge walks the per-morsel tables strictly in morsel order and, within
// a morsel, in that morsel's group-discovery order. Appending value runs in
// that order reconstructs, for every group and every aggregate, exactly the
// value sequence the serial scan would have collected — including the global
// first-appearance order of the groups themselves and the first occurrence
// kept by DISTINCT dedup. The final fold (foldAggregate) then runs over the
// same values in the same order as the serial path, so float accumulation —
// which is non-associative and would drift under a tree-shaped reduction —
// produces bit-identical results at every worker count.
//
// Phase 2 evaluates HAVING, the select list, and ORDER BY keys per merged
// group, fanning groups across workers; outputs assemble in group order.
//
// Statements containing subqueries fall back to the serial path: their
// compiled closures memoize subquery results in unsynchronized captured
// state (see exprPure).

// parAggState is one aggregate call's partial state within one group: the
// ordered non-null argument values, plus the dedup set for DISTINCT calls.
// The streaming sink (aggstream.go) replaces the value list with an
// incremental fold for the aggregates that admit one; fold and vals are
// mutually exclusive.
type parAggState struct {
	vals []Value
	seen map[string]bool // non-nil only for DISTINCT calls
	fold *slotFold       // non-nil only on the streaming fold path
}

// parGroup is one group's merged partial-aggregation state.
type parGroup struct {
	keyVals []Value
	first   []Value // first row of the group in scan order (nil: empty group)
	count   int64   // total rows, serving COUNT(*)
	slots   []parAggState
}

// aggSlot is one distinct aggregate-argument computation: several
// textually-identical calls (e.g. the same SUM in SELECT and HAVING) share
// a slot so each argument is evaluated once per row.
type aggSlot struct {
	arg      evalFn
	distinct bool
}

// collectAggCalls gathers every aggregate function call reachable from the
// statement's select list, HAVING, and ORDER BY (GROUP BY cannot legally
// contain aggregates; if it does, key compilation surfaces the same error as
// the serial path). Arguments of an aggregate are not descended into —
// nested aggregates are rejected at evaluation time by both paths.
func collectAggCalls(stmt *sqlparser.SelectStmt) []*sqlparser.FuncCall {
	var calls []*sqlparser.FuncCall
	add := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if f, ok := x.(*sqlparser.FuncCall); ok && sqlparser.IsAggregateFunc(f.Name) {
				calls = append(calls, f)
				return false
			}
			return true
		})
	}
	for _, item := range stmt.Columns {
		add(item.Expr)
	}
	add(stmt.Having)
	for _, o := range stmt.OrderBy {
		add(o.Expr)
	}
	return calls
}

// aggregateParallelizable reports whether the statement can leave the
// serial aggregation loop — it gates both the morsel-parallel path and the
// spilled path (aggspill.go): every expression subquery-free (closures are
// then stateless, safe for workers and for partition-order evaluation) and
// every aggregate call well-formed. Ill-formed calls (SUM(*), wrong arity)
// are left to the serial path so their errors surface — or stay latent on
// empty inputs — exactly as before.
func aggregateParallelizable(stmt *sqlparser.SelectStmt, calls []*sqlparser.FuncCall) bool {
	for _, item := range stmt.Columns {
		if item.Star || item.TableStar != "" {
			return false // serial path raises the star-with-aggregation error
		}
		if item.Expr != nil && !exprPure(item.Expr) {
			return false
		}
	}
	if stmt.Having != nil && !exprPure(stmt.Having) {
		return false
	}
	for _, o := range stmt.OrderBy {
		if !exprPure(o.Expr) {
			return false
		}
	}
	if !exprsPure(stmt.GroupBy) {
		return false
	}
	for _, c := range calls {
		if c.Star {
			if c.Name != "COUNT" {
				return false
			}
			continue
		}
		if len(c.Args) != 1 {
			return false
		}
	}
	return true
}

// tryExecuteAggregateParallel runs the morsel-parallel aggregation when the
// statement and configuration allow it; ok=false means the caller must use
// the serial path. stmt has positional GROUP BY references already resolved.
//
// In vectorized mode the path engages at every worker count — the win is
// batch evaluation itself, and at one worker runSpans runs the morsels
// inline in order — while scalar mode still requires real parallelism to be
// worth leaving the serial loop.
func (ctx *execContext) tryExecuteAggregateParallel(stmt *sqlparser.SelectStmt, rel *relation) (*ResultSet, [][]Value, bool, error) {
	if !ctx.vector {
		if ctx.workers <= 1 {
			return nil, nil, false, nil
		}
		if len(morselSpans(len(rel.rows), ctx.morsel)) <= 1 {
			return nil, nil, false, nil
		}
	}
	calls := collectAggCalls(stmt)
	if !aggregateParallelizable(stmt, calls) {
		return nil, nil, false, nil
	}
	out, keys, err := ctx.executeAggregateParallel(stmt, rel, calls)
	return out, keys, true, err
}

func (ctx *execContext) executeAggregateParallel(stmt *sqlparser.SelectStmt, rel *relation, calls []*sqlparser.FuncCall) (*ResultSet, [][]Value, error) {
	ids := identitySel(len(rel.rows))
	spans := morselSpans(len(ids), ctx.spanSize(len(rel.cols)))

	// Assign each distinct (argument, DISTINCT) pair a slot — a slot holds
	// the argument's per-group value list, which every aggregate over that
	// same input shares (SUM(x) and AVG(x) read one list; the fold function
	// is the caller's, not the slot's). PrintExpr is injective up to parse
	// equivalence, making the dedup key sound.
	slotIdx := make(map[string]int)
	slotOf := make(map[*sqlparser.FuncCall]int, len(calls))
	var slots []aggSlot
	var slotArgs []sqlparser.Expr
	for _, call := range calls {
		if call.Star {
			continue // COUNT(*) is served by parGroup.count
		}
		key := fmt.Sprintf("%t|%s", call.Distinct, sqlparser.PrintExpr(call.Args[0]))
		if i, ok := slotIdx[key]; ok {
			slotOf[call] = i
			continue
		}
		fn, err := compileExpr(rel, ctx, call.Args[0])
		if err != nil {
			return nil, nil, err
		}
		slotIdx[key] = len(slots)
		slotOf[call] = len(slots)
		slots = append(slots, aggSlot{arg: fn, distinct: call.Distinct})
		slotArgs = append(slotArgs, call.Args[0])
	}
	keyFns := make([]evalFn, len(stmt.GroupBy))
	for i, e := range stmt.GroupBy {
		fn, err := compileExpr(rel, ctx, e)
		if err != nil {
			return nil, nil, err
		}
		keyFns[i] = fn
	}
	// Batch kernels for the per-row phase-1 expressions (vectorized mode).
	var keyBatch, slotBatch []batchExpr
	if ctx.vector {
		keyBatch = make([]batchExpr, len(stmt.GroupBy))
		for i, e := range stmt.GroupBy {
			keyBatch[i] = compileBatchExpr(rel, ctx, e)
		}
		slotBatch = make([]batchExpr, len(slots))
		for i, e := range slotArgs {
			slotBatch[i] = compileBatchExpr(rel, ctx, e)
		}
	}

	// Phase 1: per-morsel partial aggregation.
	type aggShard struct {
		order  []string
		groups map[string]*parGroup
	}
	type aggWorker struct {
		bc       *batchCtx
		keyVecs  []*vector
		slotVecs []*vector
	}
	workers := spanWorkers(len(spans), ctx.workers)
	// With one worker runSpans processes morsels inline in order, so a single
	// shared table accumulates exactly what the per-morsel shards would merge
	// to — same group discovery order, same per-slot value order, same
	// DISTINCT first occurrences — without the per-morsel maps or the merge
	// pass. (Only the vectorized path routes here at one worker; the scalar
	// gate keeps single-worker scalar aggregation on the serial loop.)
	single := workers <= 1
	var global *aggShard
	if single {
		global = &aggShard{groups: make(map[string]*parGroup)}
	}
	aws := make([]*aggWorker, workers)
	shards := make([]*aggShard, len(spans))
	err := ctx.runSpans(spans, workers, func(w, m int, s span) error {
		sh := global
		if sh == nil {
			sh = &aggShard{groups: make(map[string]*parGroup)}
		}
		var keyScratch, valScratch []byte
		newGroup := func(keyVals []Value, first []Value) *parGroup {
			g := &parGroup{keyVals: keyVals, first: first, slots: make([]parAggState, len(slots))}
			for i := range g.slots {
				if slots[i].distinct {
					g.slots[i].seen = make(map[string]bool)
				}
			}
			return g
		}

		if ctx.vector {
			aw := aws[w]
			if aw == nil {
				aw = &aggWorker{bc: &batchCtx{rows: rel.rows}}
				aw.keyVecs = make([]*vector, len(keyBatch))
				for i := range aw.keyVecs {
					aw.keyVecs[i] = &vector{}
				}
				aw.slotVecs = make([]*vector, len(slotBatch))
				for i := range aw.slotVecs {
					aw.slotVecs[i] = &vector{}
				}
				aws[w] = aw
			}
			msel := ids[s.lo:s.hi]
			// Chained prefix evaluation (keys, then slot arguments) lands
			// nOK/evalErr on the row-major-first failure, matching the scalar
			// loop's key-then-slots per-row order.
			nOK := len(msel)
			var evalErr error
			for i, kb := range keyBatch {
				n, err := kb(aw.bc, msel[:nOK], aw.keyVecs[i])
				if err != nil {
					nOK, evalErr = n, err
				}
			}
			for i, sb := range slotBatch {
				n, err := sb(aw.bc, msel[:nOK], aw.slotVecs[i])
				if err != nil {
					nOK, evalErr = n, err
				}
			}
			if evalErr != nil {
				return evalErr
			}
			for i := range msel {
				if len(keyBatch) > 0 {
					keyScratch = appendRowKeyVecs(keyScratch[:0], aw.keyVecs, i)
				}
				// The map lookup converts without allocating; the key string is
				// materialized only for a group's first row.
				g, ok := sh.groups[string(keyScratch)]
				if !ok {
					key := string(keyScratch)
					var keyVals []Value
					if len(keyBatch) > 0 {
						keyVals = make([]Value, len(keyBatch))
						for k := range keyBatch {
							keyVals[k] = aw.keyVecs[k].value(i)
						}
					}
					g = newGroup(keyVals, rel.rows[msel[i]])
					sh.groups[key] = g
					sh.order = append(sh.order, key)
				}
				g.count++
				for si := range slots {
					sv := aw.slotVecs[si]
					if sv.null[i] {
						continue
					}
					st := &g.slots[si]
					if st.seen != nil {
						valScratch = sv.appendKey(valScratch[:0], i)
						if st.seen[string(valScratch)] {
							continue
						}
						st.seen[string(valScratch)] = true
					}
					st.vals = append(st.vals, sv.value(i))
				}
			}
			shards[m] = sh
			return nil
		}

		for _, ri := range ids[s.lo:s.hi] {
			row := rel.rows[ri]
			var keyVals []Value
			if len(keyFns) > 0 {
				keyVals = make([]Value, len(keyFns))
				for i, fn := range keyFns {
					v, err := fn(row)
					if err != nil {
						return err
					}
					keyVals[i] = v
				}
				keyScratch = AppendRowKey(keyScratch[:0], keyVals)
			}
			g, ok := sh.groups[string(keyScratch)]
			if !ok {
				key := string(keyScratch)
				g = newGroup(keyVals, row)
				sh.groups[key] = g
				sh.order = append(sh.order, key)
			}
			g.count++
			for i := range slots {
				v, err := slots[i].arg(row)
				if err != nil {
					return err
				}
				if v.IsNull() {
					continue
				}
				st := &g.slots[i]
				if st.seen != nil {
					valScratch = v.AppendKey(valScratch[:0])
					if st.seen[string(valScratch)] {
						continue
					}
					st.seen[string(valScratch)] = true
				}
				st.vals = append(st.vals, v)
			}
		}
		shards[m] = sh
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Deterministic merge: morsel order outer, discovery order inner. The
	// single-worker path already accumulated into one table in that exact
	// order, so its table is the merge result.
	merged := make(map[string]*parGroup)
	var order []string
	if single {
		merged, order = global.groups, global.order
		shards = nil
	}
	for _, sh := range shards {
		for _, key := range sh.order {
			src := sh.groups[key]
			dst, ok := merged[key]
			if !ok {
				merged[key] = src
				order = append(order, key)
				continue
			}
			dst.count += src.count
			for i := range dst.slots {
				d, s := &dst.slots[i], &src.slots[i]
				if d.seen == nil {
					d.vals = append(d.vals, s.vals...)
					continue
				}
				var scratch []byte
				for _, v := range s.vals {
					scratch = v.AppendKey(scratch[:0])
					if d.seen[string(scratch)] {
						continue
					}
					d.seen[string(scratch)] = true
					d.vals = append(d.vals, v)
				}
			}
		}
	}
	groups := make([]*parGroup, 0, len(order))
	for _, key := range order {
		groups = append(groups, merged[key])
	}
	// An aggregate without GROUP BY over zero rows still yields one group.
	if len(groups) == 0 && len(stmt.GroupBy) == 0 {
		groups = append(groups, &parGroup{slots: make([]parAggState, len(slots))})
	}

	return ctx.aggFinalize(stmt, rel, groups, slotOf)
}

// aggFinalize is the grouped-aggregation output phase shared by the parallel
// and streaming paths: per merged group it evaluates HAVING, the select list,
// and ORDER BY keys, fanning one group per morsel across workers; outputs
// assemble in group order.
func (ctx *execContext) aggFinalize(stmt *sqlparser.SelectStmt, rel *relation,
	groups []*parGroup, slotOf map[*sqlparser.FuncCall]int) (*ResultSet, [][]Value, error) {
	var names []string
	for i, item := range stmt.Columns {
		if item.Star || item.TableStar != "" {
			return nil, nil, fmt.Errorf("engine: SELECT * is not valid with aggregation")
		}
		names = append(names, outputName(item, i))
	}
	out := &ResultSet{Columns: names}
	needSort := len(stmt.OrderBy) > 0
	cache := newExprCache()

	// Per-group evaluation (HAVING, select list, sort keys), fanned one group
	// per morsel; outputs assemble in group order below.
	type groupOut struct {
		skip bool
		row  []Value
		key  []Value
	}
	results := make([]groupOut, len(groups))
	err := ctx.runSpans(morselSpans(len(groups), 1), ctx.workers, func(_, gi int, _ span) error {
		g := groups[gi]
		genv := &groupEnv{ctx: ctx, rel: rel, groupBy: stmt.GroupBy, keyVals: g.keyVals,
			cache: cache, par: g, slotOf: slotOf}
		if stmt.Having != nil {
			hv, err := genv.eval(stmt.Having)
			if err != nil {
				return err
			}
			if !hv.Truthy() {
				results[gi].skip = true
				return nil
			}
		}
		row := make([]Value, len(stmt.Columns))
		for i, item := range stmt.Columns {
			v, err := genv.eval(item.Expr)
			if err != nil {
				return err
			}
			row[i] = v
		}
		results[gi].row = row
		if needSort {
			key, err := genv.sortKey(stmt.OrderBy, out, row)
			if err != nil {
				return err
			}
			results[gi].key = key
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	var sortKeys [][]Value
	for i := range results {
		if results[i].skip {
			continue
		}
		out.Rows = append(out.Rows, results[i].row)
		if needSort {
			sortKeys = append(sortKeys, results[i].key)
		}
	}
	return out, sortKeys, nil
}
