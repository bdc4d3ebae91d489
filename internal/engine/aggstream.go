package engine

import (
	"fmt"

	"flexdp/internal/sqlparser"
)

// Streaming grouped aggregation: the aggregation sink of the pipeline driver
// (stream.go). Every SELECT body with aggregation ends here, a bare scan
// with no pipeline operators included.
//
// Each morsel leaving the pipeline builds a per-morsel partial table on a
// worker: for every row it evaluates the GROUP BY keys, then every aggregate
// call's argument, and collects the non-null (and, for DISTINCT, locally
// deduped) values per group in scan order, along with the group's row count
// and first row. The ordered consumer merges the tables strictly in morsel
// order and, within a morsel, in group-discovery order. That reconstructs,
// for every group and every aggregate, exactly the value sequence a serial
// scan collects — including the global first-appearance order of the groups
// and the first occurrence DISTINCT keeps. For the aggregates that admit it
// (COUNT/SUM/AVG/MIN/MAX) the merged state folds incrementally — an
// ungrouped SUM over a billion rows holds O(1) state instead of the value
// run — and because the fold runs only on the single ordered consumer, its
// float accumulation order is the serial one, keeping results bit-identical
// at every worker count. MEDIAN/STDDEV slots keep their value lists (their
// folds need the full population).
//
// The output phase (aggFinalize) evaluates HAVING, the select list, and
// ORDER BY keys per merged group, fanning groups across workers; outputs
// assemble in group order.
//
// When the grouping state would exceed the memory budget, the morsels stream
// into level-0 partition files instead (keys evaluated per row, rows tagged
// with their running input position) and the recursive partitioner drains
// them (executeAggSpillStream, aggspill.go).
//
// Statements the sink cannot evaluate (aggregateParallelizable) materialize
// and take the serial groupEnv loop (aggregate.go): subqueries, whose
// compiled closures memoize results in unsynchronized captured state (see
// exprPure), SELECT * with aggregation, and ill-formed calls.

// slotFold is the incremental state replacing one slot's value run: enough
// for COUNT/SUM/AVG/MIN/MAX, updated per value in canonical order. A slot can
// serve several calls (SUM(x) and MIN(x) share one), so all components are
// maintained together.
type slotFold struct {
	count  int64
	isum   int64
	fsum   float64
	allInt bool
	min    Value
	max    Value
	has    bool
}

func newSlotFold() *slotFold { return &slotFold{allInt: true} }

// add folds one non-null (and, for DISTINCT, already-deduped) value. The
// accumulation mirrors foldAggregate exactly: fsum adds in value order (the
// non-associative float sequence the serial fold would run), isum adds
// unconditionally, min/max replace only on strict compare (keep-first ties).
func (f *slotFold) add(v Value) {
	f.count++
	if v.Kind != KindInt {
		f.allInt = false
	}
	f.fsum += v.AsFloat()
	f.isum += v.Int
	if !f.has {
		f.min, f.max, f.has = v, v, true
		return
	}
	if Compare(v, f.min) < 0 {
		f.min = v
	}
	if Compare(v, f.max) > 0 {
		f.max = v
	}
}

// result finalizes the named aggregate from the folded state, yielding the
// value foldAggregate computes from the equivalent value run.
func (f *slotFold) result(name string) (Value, error) {
	switch name {
	case "COUNT":
		return NewInt(f.count), nil
	case "SUM":
		if f.count == 0 {
			return Null, nil
		}
		if f.allInt {
			return NewInt(f.isum), nil
		}
		return NewFloat(f.fsum), nil
	case "AVG":
		if f.count == 0 {
			return Null, nil
		}
		return NewFloat(f.fsum / float64(f.count)), nil
	case "MIN":
		if !f.has {
			return Null, nil
		}
		return f.min, nil
	case "MAX":
		if !f.has {
			return Null, nil
		}
		return f.max, nil
	}
	return Null, fmt.Errorf("engine: unsupported aggregate %s", name)
}

// foldableName reports whether slotFold covers the aggregate.
func foldableName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// parAggState is one aggregate slot's partial state within one group: the
// ordered non-null argument values, plus the dedup set for DISTINCT calls.
// A foldable slot replaces the value list with an incremental fold; fold and
// vals are mutually exclusive.
type parAggState struct {
	vals []Value
	seen map[string]bool // non-nil only for DISTINCT calls
	fold *slotFold       // non-nil only for foldable slots
}

// parGroup is one group's partial-aggregation state.
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
// the serial loop). Arguments of an aggregate are not descended into —
// nested aggregates are rejected at evaluation time.
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

// aggregateParallelizable reports whether the streaming sink, and with it
// the spilled aggregation, can evaluate the statement: every expression
// subquery-free (closures are then stateless, safe for workers and for
// partition-order evaluation) and every aggregate call well-formed. The rest
// take the serial groupEnv loop, where ill-formed calls (SUM(*), wrong
// arity) raise their errors — or stay latent on empty inputs.
func aggregateParallelizable(stmt *sqlparser.SelectStmt, calls []*sqlparser.FuncCall) bool {
	for _, item := range stmt.Columns {
		if item.Star || item.TableStar != "" {
			return false // the serial loop raises the star-with-aggregation error
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

// executeAggregateStream is the aggregation sink of the streaming executor.
// Statements aggregateParallelizable rejects materialize the pipeline and take
// the serial loop (executeAggregate); grouped state over the memory budget
// streams into the spilled aggregation; everything else aggregates per morsel
// here.
func (ctx *execContext) executeAggregateStream(stmt *sqlparser.SelectStmt, p *pipeline) (*ResultSet, [][]Value, error) {
	if resolved, err := resolvePositionalGroupBy(stmt); err != nil {
		return nil, nil, err
	} else if resolved != nil {
		clone := *stmt
		clone.GroupBy = resolved
		stmt = &clone
	}
	calls := collectAggCalls(stmt)
	if !aggregateParallelizable(stmt, calls) {
		rel, err := ctx.materializeStream(p)
		if err != nil {
			return nil, nil, err
		}
		return ctx.executeAggregate(stmt, rel)
	}
	if len(stmt.GroupBy) > 0 && ctx.spill.Enabled() &&
		ctx.spill.ShouldSpill(estRowsBytes(p.src.rows)) {
		return ctx.executeAggSpillStream(stmt, p)
	}

	rel := p.rel

	// Assign each distinct (argument, DISTINCT) pair a slot — a slot holds
	// the argument's per-group state, which every aggregate over that same
	// input shares (SUM(x) and AVG(x) read one slot; the fold function is the
	// caller's, not the slot's). PrintExpr is injective up to parse
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
	// A slot folds only when every call reading it admits an incremental
	// fold; a shared slot serving both SUM(x) and MEDIAN(x) keeps the values.
	foldable := make([]bool, len(slots))
	for i := range foldable {
		foldable[i] = true
	}
	allFoldable := true
	for _, call := range calls {
		if call.Star {
			continue
		}
		if !foldableName(call.Name) {
			foldable[slotOf[call]] = false
			allFoldable = false
		}
	}
	keyFns := make([]evalFn, len(stmt.GroupBy))
	for i, e := range stmt.GroupBy {
		fn, err := compileExpr(rel, ctx, e)
		if err != nil {
			return nil, nil, err
		}
		keyFns[i] = fn
	}
	var keyBatch, slotBatch []batchExpr
	if ctx.vector {
		keyBatch = make([]batchExpr, len(stmt.GroupBy))
		for i, e := range stmt.GroupBy {
			keyBatch[i] = compileBatchExpr(rel, ctx, e)
		}
		slotBatch = make([]batchExpr, len(slotArgs))
		for i, e := range slotArgs {
			slotBatch[i] = compileBatchExpr(rel, ctx, e)
		}
	}

	// Per-morsel partial aggregation on the workers, one shard per morsel.
	// With one worker the morsels arrive
	// inline in order, so a single shared table accumulates exactly what the
	// per-morsel shards would merge to — same group discovery order, same
	// per-slot value order — without the per-morsel maps or the merge pass;
	// foldable slots fold directly as values arrive.
	type aggShard struct {
		order  []string
		groups map[string]*parGroup
	}
	type aggWorker struct {
		bc       *batchCtx
		keyVecs  []*vector
		slotVecs []*vector
		ids      []int
	}
	single := p.planWorkers(ctx, true) <= 1
	var global *aggShard
	if single {
		global = &aggShard{groups: make(map[string]*parGroup)}
	}
	var aws []*aggWorker
	produce := func(w int, m morsel) (any, error) {
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
				if single && foldable[i] {
					g.slots[i].fold = newSlotFold()
				}
			}
			return g
		}

		if ctx.vector {
			aw := aws[w]
			if aw == nil {
				aw = &aggWorker{bc: &batchCtx{}}
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
			aw.bc.rows = m.rows
			msel := m.sel
			if msel == nil {
				if len(aw.ids) < len(m.rows) {
					aw.ids = identitySel(len(m.rows))
				}
				msel = aw.ids[:len(m.rows)]
			}
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
				return nil, evalErr
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
					g = newGroup(keyVals, m.rows[msel[i]])
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
					if st.fold != nil {
						st.fold.add(sv.value(i))
					} else {
						st.vals = append(st.vals, sv.value(i))
					}
				}
			}
			return sh, nil
		}

		for _, row := range m.dense() {
			var keyVals []Value
			if len(keyFns) > 0 {
				keyVals = make([]Value, len(keyFns))
				for i, fn := range keyFns {
					v, err := fn(row)
					if err != nil {
						return nil, err
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
					return nil, err
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
				if st.fold != nil {
					st.fold.add(v)
				} else {
					st.vals = append(st.vals, v)
				}
			}
		}
		return sh, nil
	}

	// Ordered merge on the consumer: morsel order outer, discovery order
	// inner — the canonical serial order — folding foldable slots as state
	// arrives instead of concatenating value runs.
	merged := make(map[string]*parGroup)
	var order []string
	var mergeScratch []byte
	consume := func(payload any) error {
		if single {
			return nil // already accumulated into the shared table in order
		}
		sh := payload.(*aggShard)
		for _, key := range sh.order {
			src := sh.groups[key]
			dst, ok := merged[key]
			if !ok {
				// First appearance: adopt the shard's group, converting
				// foldable slots. The adopted seen sets already cover the
				// adopted values, so no re-dedup.
				for i := range src.slots {
					if !foldable[i] {
						continue
					}
					st := &src.slots[i]
					f := newSlotFold()
					for _, v := range st.vals {
						f.add(v)
					}
					st.fold, st.vals = f, nil
				}
				merged[key] = src
				order = append(order, key)
				continue
			}
			dst.count += src.count
			for i := range dst.slots {
				d, s := &dst.slots[i], &src.slots[i]
				if d.seen == nil {
					if d.fold != nil {
						for _, v := range s.vals {
							d.fold.add(v)
						}
					} else {
						d.vals = append(d.vals, s.vals...)
					}
					continue
				}
				for _, v := range s.vals {
					mergeScratch = v.AppendKey(mergeScratch[:0])
					if d.seen[string(mergeScratch)] {
						continue
					}
					d.seen[string(mergeScratch)] = true
					if d.fold != nil {
						d.fold.add(v)
					} else {
						d.vals = append(d.vals, v)
					}
				}
			}
		}
		return nil
	}
	aws = make([]*aggWorker, p.planWorkers(ctx, true))
	produce, atrace := ctx.prof.sink("aggregate", produce)
	if err := p.run(ctx, true, produce, consume); err != nil {
		return nil, nil, err
	}

	if single {
		order, merged = global.order, global.groups
	}
	groups := make([]*parGroup, 0, len(order))
	for _, key := range order {
		groups = append(groups, merged[key])
	}
	// An aggregate without GROUP BY over zero rows still yields one group;
	// its plain (fold-free) slots make evalAggregate fold empty value runs,
	// preserving the empty-input results (SUM → NULL, COUNT → 0).
	if len(groups) == 0 && len(stmt.GroupBy) == 0 {
		groups = append(groups, &parGroup{slots: make([]parAggState, len(slots))})
	}
	// Grouped state (or any unfoldable value run) is the sink's pipeline-
	// breaker materialization; a fully-folded ungrouped aggregate holds O(1)
	// state and breaks nothing.
	if len(stmt.GroupBy) > 0 || !allFoldable {
		ctx.pstats.breaker(0)
	}
	res, keys, err := ctx.aggFinalize(stmt, rel, groups, slotOf)
	if err == nil {
		atrace.setRowsOut(len(res.Rows))
	}
	return res, keys, err
}

// aggFinalize is the sink's output phase: per merged group it evaluates
// HAVING, the select list, and ORDER BY keys, fanning one group per morsel
// across workers; outputs assemble in group order.
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
