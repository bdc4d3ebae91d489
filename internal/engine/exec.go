package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"flexdp/internal/spill"
	"flexdp/internal/sqlparser"
)

// execContext carries per-query state: the database plus CTE results
// registered by enclosing WITH clauses, and (for prepared queries) the
// shared compiled-plan cache.
type execContext struct {
	db   *DB
	ctes map[string]*relation
	// plans, when non-nil, memoizes compiled subquery-free expression
	// closures across executions of the same prepared statement. It is safe
	// for concurrent use; nil for one-shot Query/Execute calls.
	plans *planCache
	// cfg is the immutable execution-config snapshot this query runs under;
	// the scalar fields below cache its derived values. Contexts built
	// directly by tests may leave it zero (zero value = defaults).
	cfg ExecConfig
	// pstats gauges the streaming dataflow (peak in-flight morsel bytes,
	// pipeline-breaker count); nil-safe, folded into spill stats at query end.
	pstats *pipeStats
	// workers bounds the morsel-driven executor's goroutines for this query;
	// morsel is the chunk size in rows. Both are snapshotted from the DB at
	// query start so one execution sees a consistent configuration.
	workers int
	morsel  int
	// pinned records whether morsel came from an explicit SetMorselSize;
	// when false, width-aware operators size their morsels adaptively via
	// spanSize. vector enables the batch-expression kernels (kernels.go) on
	// the operators that support them; both are snapshotted at query start.
	pinned bool
	vector bool
	// spill is the per-query out-of-core manager (nil when no memory budget
	// is configured). It is shared by every child context — CTEs and
	// subqueries charge the same budget — and retired by the DB entry point
	// that created it.
	spill *spill.Manager
	// goctx is the query's cancellation context, polled at morsel and
	// record-batch boundaries; nil behaves as context.Background().
	goctx context.Context
	// prof collects the per-operator execution trace when ExecConfig.Profile
	// requested one; nil (the default) disables all trace collection.
	prof *queryProfiler
}

// spanSize returns the morsel size for an operator over rows of the given
// column width: the pinned size when SetMorselSize fixed one, otherwise the
// adaptive bytes-per-morsel-derived size (see morsel.go). Either way the
// size affects scheduling only — per-morsel outputs merge in morsel order,
// so results are identical at every granularity.
func (ctx *execContext) spanSize(width int) int {
	if ctx.pinned {
		return ctx.morsel
	}
	return adaptiveMorselSize(width)
}

// err polls the query's context. Row and record loops call it once per
// morsel worth of work, which bounds cancellation latency to one morsel
// without a per-row atomic load.
func (ctx *execContext) err() error {
	if ctx.goctx == nil {
		return nil
	}
	return ctx.goctx.Err()
}

// ExecuteContext runs a parsed SELECT statement under goctx. It is the
// primary execution entry point: cancellation or deadline expiry aborts
// execution within one morsel of work per worker and returns the context's
// error unwrapped, so errors.Is(err, context.Canceled) holds. A panic during
// execution is recovered into a *PanicError instead of killing the process.
// Either way the query's spill files are removed before returning. The
// execution runs against an immutable ExecConfig snapshot taken here, so
// configuration changes mid-query apply only to later executions.
func (db *DB) ExecuteContext(goctx context.Context, stmt *sqlparser.SelectStmt) (rs *ResultSet, err error) {
	return db.ExecuteContextConfig(goctx, stmt, db.ExecConfig())
}

// ExecuteContextConfig runs a parsed SELECT statement under goctx against an
// explicit execution config instead of the database's defaults. It is how a
// caller requests a per-query override — most importantly cfg.Profile, which
// receives the execution's per-operator trace (see QueryProfile). An
// EXPLAIN ANALYZE statement executes fully and returns the rendered profile
// as its result set instead of the query's rows.
func (db *DB) ExecuteContextConfig(goctx context.Context, stmt *sqlparser.SelectStmt, cfg ExecConfig) (*ResultSet, error) {
	if stmt.Explain {
		return db.explainAnalyze(goctx, stmt, cfg)
	}
	return db.exec(goctx, stmt, cfg, nil)
}

// exec is the one execution body behind ExecuteContextConfig and
// PreparedQuery.ExecContextConfig: plans is the prepared statement's plan
// cache, nil for a one-shot execution (nothing is memoized).
func (db *DB) exec(goctx context.Context, stmt *sqlparser.SelectStmt, cfg ExecConfig, plans *planCache) (rs *ResultSet, err error) {
	mgr := cfg.newSpillManager()
	defer db.finishSpill(mgr)
	ps := &pipeStats{}
	defer db.notePipeline(ps)
	var prof *queryProfiler
	if cfg.Profile != nil {
		prof = newQueryProfiler()
		// Registered between the stats defers and the panic recovery, so it
		// runs after recoverExecPanic (seeing the recovered outcome) and
		// before finishSpill retires the manager: the profile snapshots the
		// query's own spill stats exactly as they are folded into the DB.
		defer prof.fill(cfg.Profile, cfg, mgr, ps)
	}
	defer recoverExecPanic(&err)
	ctx := &execContext{db: db, ctes: make(map[string]*relation), plans: plans,
		cfg: cfg, pstats: ps,
		workers: cfg.workers(), morsel: cfg.morsel(),
		pinned: cfg.morselPinned(), vector: cfg.vectorized(), spill: mgr, goctx: goctx,
		prof: prof}
	return ctx.executeSelect(stmt)
}

// explainAnalyze executes the statement with profiling forced on and returns
// the rendered trace as a one-column result set (Postgres-style
// "QUERY PLAN"), discarding the query's own rows. The query still runs end
// to end — rows scanned, joined, aggregated, spilled — so the numbers are
// measurements, not estimates.
func (db *DB) explainAnalyze(goctx context.Context, stmt *sqlparser.SelectStmt, cfg ExecConfig) (*ResultSet, error) {
	inner := *stmt
	inner.Explain = false
	var prof QueryProfile
	cfg.Profile = &prof
	if _, err := db.ExecuteContextConfig(goctx, &inner, cfg); err != nil {
		return nil, err
	}
	out := &ResultSet{Columns: []string{"QUERY PLAN"}}
	for _, line := range prof.Render() {
		out.Rows = append(out.Rows, []Value{NewString(line)})
	}
	return out, nil
}

// Execute runs a parsed SELECT statement and returns its result set. It is a
// thin wrapper over ExecuteContext with context.Background(); prefer the
// context-first form in code that has a real context to pass.
func (db *DB) Execute(stmt *sqlparser.SelectStmt) (*ResultSet, error) {
	return db.ExecuteContext(context.Background(), stmt)
}

// QueryContext parses and executes SQL text under goctx in one step. Like
// ExecuteContext, it is the primary form of the parse-and-run entry point.
func (db *DB) QueryContext(goctx context.Context, sql string) (*ResultSet, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecuteContext(goctx, stmt)
}

// Query parses and executes SQL text in one step: a thin wrapper over
// QueryContext with context.Background(). Prefer QueryContext when a real
// context is available.
func (db *DB) Query(sql string) (*ResultSet, error) {
	return db.QueryContext(context.Background(), sql)
}

// executeSelect handles WITH registration, set operations, and trailing
// ORDER BY / LIMIT / OFFSET.
func (ctx *execContext) executeSelect(stmt *sqlparser.SelectStmt) (*ResultSet, error) {
	// Entry check: a statement (or CTE / subquery) never starts under a
	// cancelled context. The cancellation points below all live in row
	// loops, so a plan whose path has no such loop (a bare scan feeding a
	// global aggregate, say) could otherwise complete despite arriving
	// pre-cancelled.
	if err := ctx.err(); err != nil {
		return nil, err
	}
	// CTEs are visible to later CTEs and the main body. Each statement gets
	// a child context so sibling subqueries cannot see our CTEs leak out.
	child := &execContext{db: ctx.db, ctes: make(map[string]*relation), plans: ctx.plans,
		cfg: ctx.cfg, pstats: ctx.pstats,
		workers: ctx.workers, morsel: ctx.morsel, pinned: ctx.pinned, vector: ctx.vector,
		spill: ctx.spill, goctx: ctx.goctx, prof: ctx.prof}
	for name, rel := range ctx.ctes {
		child.ctes[name] = rel
	}
	for _, cte := range stmt.With {
		rs, err := child.executeSelect(cte.Query)
		if err != nil {
			return nil, fmt.Errorf("in CTE %q: %w", cte.Name, err)
		}
		rel := resultToRelation(rs, cte.Name)
		if len(cte.Columns) > 0 {
			if len(cte.Columns) != len(rel.cols) {
				return nil, fmt.Errorf("engine: CTE %q declares %d columns but query returns %d",
					cte.Name, len(cte.Columns), len(rel.cols))
			}
			for i, c := range cte.Columns {
				rel.cols[i].name = c
			}
		}
		child.ctes[strings.ToLower(cte.Name)] = rel
	}

	out, sortKeys, err := child.executeCore(stmt)
	if err != nil {
		return nil, err
	}

	// Set operations chain left-associatively along the SetOp links.
	for op := stmt.SetOp; op != nil; op = op.Right.SetOp {
		right, _, err := child.executeCore(op.Right)
		if err != nil {
			return nil, err
		}
		if len(right.Columns) != len(out.Columns) {
			return nil, fmt.Errorf("engine: set operation arity mismatch: %d vs %d",
				len(out.Columns), len(right.Columns))
		}
		out, err = child.applySetOp(out, right, op.Kind, op.All)
		if err != nil {
			return nil, err
		}
		sortKeys = nil // positional sort only after set ops
	}

	if len(stmt.OrderBy) > 0 {
		if err := sortResult(child, out, stmt.OrderBy, sortKeys); err != nil {
			return nil, err
		}
	}
	if stmt.Offset != nil || stmt.Limit != nil {
		if err := applyLimitOffset(out, stmt, child); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// executeCore runs a single SELECT body (no set ops, no ORDER BY/LIMIT) and
// additionally returns per-output-row sort keys for the statement's ORDER BY
// expressions evaluated in the projection environment. The streaming dataflow
// (stream.go) is the default; ExecConfig.MaterializeStages selects the
// materialize-between-operators executor, kept as the differential reference.
func (ctx *execContext) executeCore(stmt *sqlparser.SelectStmt) (*ResultSet, [][]Value, error) {
	if ctx.cfg.MaterializeStages {
		return ctx.executeCoreMaterialized(stmt)
	}
	return ctx.executeCoreStreaming(stmt)
}

// executeCoreStreaming evaluates the SELECT body as one morsel pipeline:
// FROM (with streaming join probes) → WHERE (selection vectors) → the
// aggregation or projection sink. Only pipeline breakers materialize rows.
func (ctx *execContext) executeCoreStreaming(stmt *sqlparser.SelectStmt) (rs *ResultSet, sortKeys [][]Value, err error) {
	// The plan says which WHERE/ON conjuncts run below which join and which
	// columns each join still emits; what it left of the WHERE runs here.
	plan := ctx.planFor(stmt)
	where := stmt.Where
	if plan != nil {
		where = plan.where
	}
	p, err := ctx.buildFromPipeline(stmt.From, plan)
	if err != nil {
		return nil, nil, err
	}
	// Operators may hold spill writers before the drive starts (Grace join
	// probe partitions); a compile error in a later stage must release them.
	defer func() {
		if err != nil {
			p.abort()
		}
	}()

	if where != nil {
		if err = ctx.pushFilter(p, where, ""); err != nil {
			return nil, nil, err
		}
	}

	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil
	if !aggregated {
		for _, item := range stmt.Columns {
			if item.Expr != nil && sqlparser.ContainsAggregate(item.Expr) {
				aggregated = true
				break
			}
		}
	}

	var out *ResultSet
	if aggregated {
		out, sortKeys, err = ctx.executeAggregateStream(stmt, p)
	} else {
		out, sortKeys, err = ctx.executeProjectionStream(stmt, p)
	}
	if err != nil {
		return nil, nil, err
	}

	if stmt.Distinct {
		out, sortKeys, err = ctx.dedupeRows(out, sortKeys)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, sortKeys, nil
}

// executeCoreMaterialized is the pre-streaming executor: every stage fully
// materializes its output relation before the next runs. Retained verbatim
// behind ExecConfig.MaterializeStages as the reference for the
// streamed-vs-materialized differential suite and benchmarks.
func (ctx *execContext) executeCoreMaterialized(stmt *sqlparser.SelectStmt) (*ResultSet, [][]Value, error) {
	rel, err := ctx.buildFrom(stmt.From)
	if err != nil {
		return nil, nil, err
	}

	// sel, when non-nil, is the selection vector the WHERE filter produced:
	// indices into rel.rows in input order. The batch path hands it to the
	// downstream operators instead of copying the kept rows; nil means "all
	// rows". Operators that cannot consume a selection materialize it via
	// applySel, which reproduces the copied-slice relation exactly.
	var sel []int
	if stmt.Where != nil {
		if ctx.vector && exprPure(stmt.Where) {
			pred := compileBatchExpr(rel, ctx, stmt.Where)
			s, err := ctx.filterSel(rel, pred)
			if err != nil {
				return nil, nil, err
			}
			sel = s
		} else {
			pred, err := compileExpr(rel, ctx, stmt.Where)
			if err != nil {
				return nil, nil, err
			}
			filtered, err := ctx.filterRows(rel.rows, pred, exprPure(stmt.Where))
			if err != nil {
				return nil, nil, err
			}
			// cols are unchanged, so the column index built for the predicate
			// compile carries over to the projection/aggregation passes.
			rel = &relation{cols: rel.cols, rows: filtered, idx: rel.idx, sig: rel.sig}
		}
	}

	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil
	if !aggregated {
		for _, item := range stmt.Columns {
			if item.Expr != nil && sqlparser.ContainsAggregate(item.Expr) {
				aggregated = true
				break
			}
		}
	}

	var out *ResultSet
	var sortKeys [][]Value
	if aggregated {
		out, sortKeys, err = ctx.executeAggregate(stmt, rel, sel)
	} else {
		out, sortKeys, err = ctx.executeProjection(stmt, rel, sel)
	}
	if err != nil {
		return nil, nil, err
	}

	if stmt.Distinct {
		out, sortKeys, err = ctx.dedupeRows(out, sortKeys)
		if err != nil {
			return nil, nil, err
		}
	}
	return out, sortKeys, nil
}

// filterRows applies a compiled predicate to every row, preserving input
// order. With a pure predicate and more than one morsel of input, the scan
// fans out across workers: each morsel filters into its own buffer and the
// buffers concatenate in morsel order, so the kept-row order — and, because
// workers stop a morsel at its first failing row and runSpans surfaces the
// lowest failing morsel, the first error — match the serial loop exactly.
func (ctx *execContext) filterRows(rows [][]Value, pred evalFn, pure bool) ([][]Value, error) {
	spans := morselSpans(len(rows), ctx.morsel)
	if !pure || ctx.workers <= 1 || len(spans) <= 1 {
		filtered := make([][]Value, 0, len(rows))
		for i, row := range rows {
			if i%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return nil, err
				}
			}
			v, err := pred(row)
			if err != nil {
				return nil, err
			}
			if v.Truthy() {
				filtered = append(filtered, row)
			}
		}
		return filtered, nil
	}
	kept := make([][][]Value, len(spans))
	err := ctx.runSpans(spans, ctx.workers, func(_, m int, s span) error {
		buf := make([][]Value, 0, s.hi-s.lo)
		for _, row := range rows[s.lo:s.hi] {
			v, err := pred(row)
			if err != nil {
				return err
			}
			if v.Truthy() {
				buf = append(buf, row)
			}
		}
		kept[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, buf := range kept {
		total += len(buf)
	}
	filtered := make([][]Value, 0, total)
	for _, buf := range kept {
		filtered = append(filtered, buf...)
	}
	return filtered, nil
}

// filterSel is the vectorized WHERE filter: the compiled batch predicate
// runs once per morsel and the truthy positions collect into a selection
// vector of row indices instead of a copied row slice. Per-morsel selections
// concatenate in morsel order and runSpans surfaces the lowest failing
// morsel's error, so kept-row order and the surfaced error match filterRows
// (and the serial row loop) exactly — at one worker the morsels simply run
// inline in order.
func (ctx *execContext) filterSel(rel *relation, pred batchExpr) ([]int, error) {
	rows := rel.rows
	spans := morselSpans(len(rows), ctx.spanSize(len(rel.cols)))
	if len(spans) == 0 {
		return []int{}, nil
	}
	ids := identitySel(len(rows))
	workers := spanWorkers(len(spans), ctx.workers)
	bcs := make([]*batchCtx, workers)
	outs := make([]*vector, workers)
	kept := make([][]int, len(spans))
	err := ctx.runSpans(spans, workers, func(w, m int, s span) error {
		if bcs[w] == nil {
			bcs[w] = &batchCtx{rows: rows}
			outs[w] = &vector{}
		}
		bc, out := bcs[w], outs[w]
		msel := ids[s.lo:s.hi]
		if _, err := pred(bc, msel, out); err != nil {
			return err
		}
		buf := make([]int, 0, len(msel))
		for i := range msel {
			if out.isTrue(i) {
				buf = append(buf, msel[i])
			}
		}
		kept[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for _, buf := range kept {
		total += len(buf)
	}
	sel := make([]int, 0, total)
	for _, buf := range kept {
		sel = append(sel, buf...)
	}
	return sel, nil
}

// buildFrom evaluates the FROM clause. An empty FROM yields one empty row so
// that `SELECT 1` works.
func (ctx *execContext) buildFrom(items []sqlparser.TableExpr) (*relation, error) {
	if len(items) == 0 {
		return &relation{rows: [][]Value{{}}}, nil
	}
	rel, err := ctx.buildTableExpr(items[0])
	if err != nil {
		return nil, err
	}
	for _, item := range items[1:] {
		right, err := ctx.buildTableExpr(item)
		if err != nil {
			return nil, err
		}
		rel, err = ctx.crossJoin(rel, right)
		if err != nil {
			return nil, err
		}
	}
	return rel, nil
}

func (ctx *execContext) buildTableExpr(te sqlparser.TableExpr) (*relation, error) {
	switch t := te.(type) {
	case *sqlparser.TableName:
		qual := strings.ToLower(t.Name)
		if t.Alias != "" {
			qual = strings.ToLower(t.Alias)
		}
		if cte, ok := ctx.ctes[strings.ToLower(t.Name)]; ok {
			return requalify(cte, qual), nil
		}
		tbl := ctx.db.Table(t.Name)
		if tbl == nil {
			return nil, fmt.Errorf("engine: unknown table %q", t.Name)
		}
		cols := make([]relCol, len(tbl.Schema.Columns))
		for i, c := range tbl.Schema.Columns {
			cols[i] = relCol{qual: qual, name: c.Name}
		}
		return &relation{cols: cols, rows: tbl.Rows}, nil

	case *sqlparser.SubqueryTable:
		rs, err := ctx.executeSelect(t.Query)
		if err != nil {
			return nil, err
		}
		return resultToRelation(rs, t.Alias), nil

	case *sqlparser.JoinExpr:
		left, err := ctx.buildTableExpr(t.Left)
		if err != nil {
			return nil, err
		}
		right, err := ctx.buildTableExpr(t.Right)
		if err != nil {
			return nil, err
		}
		return ctx.join(t, left, right)
	}
	return nil, fmt.Errorf("engine: unsupported table expression %T", te)
}

func requalify(rel *relation, qual string) *relation {
	cols := make([]relCol, len(rel.cols))
	for i, c := range rel.cols {
		cols[i] = relCol{qual: qual, name: c.name}
	}
	return &relation{cols: cols, rows: rel.rows}
}

func resultToRelation(rs *ResultSet, alias string) *relation {
	qual := strings.ToLower(alias)
	cols := make([]relCol, len(rs.Columns))
	for i, name := range rs.Columns {
		cols[i] = relCol{qual: qual, name: name}
	}
	return &relation{cols: cols, rows: rs.Rows}
}

// crossJoin materializes the cartesian product, polling the query context
// once per left row — the product can dwarf both inputs, so cancellation
// must be able to interrupt the output loop, not just the input scans.
func (ctx *execContext) crossJoin(left, right *relation) (*relation, error) {
	cols := append(append([]relCol{}, left.cols...), right.cols...)
	n := len(left.rows) * len(right.rows)
	ctx.pstats.breaker(estRowsBytes(left.rows) + estRowsBytes(right.rows))
	rows := make([][]Value, 0, n)
	// One backing slab for every output row: the result size is known
	// exactly, so a single allocation replaces n per-row allocations.
	slab := make([]Value, 0, n*len(cols))
	for _, lr := range left.rows {
		if err := ctx.err(); err != nil {
			return nil, err
		}
		for _, rr := range right.rows {
			off := len(slab)
			slab = append(slab, lr...)
			slab = append(slab, rr...)
			rows = append(rows, slab[off:len(slab):len(slab)])
		}
	}
	return &relation{cols: cols, rows: rows}, nil
}

// equiKey is one equality conjunct usable as a hash-join key: column
// positions in the left and right relations.
type equiKey struct {
	leftIdx  int
	rightIdx int
}

// splitJoinCondition decomposes an ON condition into hash-joinable equality
// conjuncts plus a residual predicate evaluated on the combined row.
func splitJoinCondition(on sqlparser.Expr, left, right *relation) (keys []equiKey, residual []sqlparser.Expr) {
	for _, c := range conjuncts(on, nil) {
		b, ok := c.(*sqlparser.BinaryExpr)
		if ok && b.Op == "=" {
			lc, lok := b.Left.(*sqlparser.ColumnRef)
			rc, rok := b.Right.(*sqlparser.ColumnRef)
			if lok && rok {
				li, lerr := left.findCol(lc.Table, lc.Name)
				ri, rerr := right.findCol(rc.Table, rc.Name)
				if lerr == nil && rerr == nil {
					keys = append(keys, equiKey{leftIdx: li, rightIdx: ri})
					continue
				}
				// Try the swapped orientation: right.col = left.col.
				li2, lerr2 := left.findCol(rc.Table, rc.Name)
				ri2, rerr2 := right.findCol(lc.Table, lc.Name)
				if lerr2 == nil && rerr2 == nil {
					keys = append(keys, equiKey{leftIdx: li2, rightIdx: ri2})
					continue
				}
			}
		}
		residual = append(residual, c)
	}
	return keys, residual
}

// joinProbe is the probe phase of a hash join: the shared immutable state
// (key positions, build-side index, compiled residuals) consulted by every
// probe scan, serial or parallel.
type joinProbe struct {
	joinLayout
	keys   []equiKey
	index  *buildIndex
	right  [][]Value
	resFns []evalFn
	vector bool // batch the probe-key encoding per morsel
}

// joinLayout is the shape of a join's output row: the columns of the left and
// of the right input row it carries, in order. Nil lists keep the whole side
// (the materialized join, an empty plan); nLeft/nRight count the columns taken.
type joinLayout struct {
	keepL, keepR  []int
	nLeft, nRight int
}

// combine appends the output row for the pair (lr, rr) to dst.
func (l joinLayout) combine(dst, lr, rr []Value) []Value {
	return appendKept(appendKept(dst, lr, l.keepL), rr, l.keepR)
}

// pad builds an outer join's padding row around one input row: src's kept
// columns on its side, NULLs (the zero Value) on the other.
func (l joinLayout) pad(src []Value, left bool) []Value {
	row := make([]Value, l.nLeft+l.nRight)
	if left {
		appendKept(row[:0], src, l.keepL)
	} else {
		appendKept(row[:l.nLeft], src, l.keepR)
	}
	return row
}

// appendKept appends src's kept columns to dst; a nil keep list keeps all.
func appendKept(dst, src []Value, keep []int) []Value {
	if keep == nil {
		return append(dst, src...)
	}
	for _, i := range keep {
		dst = append(dst, src[i])
	}
	return dst
}

// probeScratch is one worker's reusable probe state: key-encoding buffers,
// the slab output rows are carved from, and the streaming join's matched
// flags. The zero value is ready to use.
type probeScratch struct {
	sel    []int
	kvecs  []*vector
	keyBuf []Value
	key    []byte
	slab   []Value
	ml, mr []bool
}

// joinSlabValues sizes the chunks output rows are carved from: one allocation
// per chunk instead of one per matched pair.
const joinSlabValues = 512

// emptyRow is the zero-width output row (a join none of whose columns is read
// above it). Non-nil: aggregation tells "no first row" from a row by nil-ness.
var emptyRow = []Value{}

// scan probes left rows [lo, hi) against the build index and returns the
// combined rows that pass every residual, in left-row order. matchedLeft is
// written only at indices in [lo, hi); matchedRight may be any scratch slice
// of build-side length (workers pass private ones); either may be nil when
// the join kind never reads it. sc carries the caller's per-worker scratch
// (nil: call-local), so concurrent scans over disjoint ranges are safe.
func (p *joinProbe) scan(leftRows [][]Value, lo, hi int, matchedLeft, matchedRight []bool, sc *probeScratch) ([][]Value, error) {
	if sc == nil {
		sc = &probeScratch{}
	}
	if len(sc.kvecs) != len(p.keys) {
		sc.keyBuf = make([]Value, len(p.keys))
		sc.kvecs = make([]*vector, len(p.keys))
		for k := range sc.kvecs {
			sc.kvecs[k] = &vector{}
		}
	}
	// The vectorized probe gathers each key column into a typed vector once
	// for the whole range and encodes from the slabs; appendRowKeyVecs emits
	// exactly the bytes AppendRowKey would, so lookups — and therefore the
	// matches, their order, and every residual evaluation — are identical.
	if p.vector {
		sc.sel = sc.sel[:0]
		for li := lo; li < hi; li++ {
			sc.sel = append(sc.sel, li)
		}
		for k := range p.keys {
			loadColumn(leftRows, sc.sel, p.keys[k].leftIdx, sc.kvecs[k])
		}
	}
	leftCol := func(i int) int { return p.keys[i].leftIdx }
	width := p.nLeft + p.nRight
	var out [][]Value
rowLoop:
	for li := lo; li < hi; li++ {
		lr := leftRows[li]
		if p.vector {
			for _, kv := range sc.kvecs {
				if kv.null[li-lo] {
					continue rowLoop // NULL join keys never match
				}
			}
			sc.key = appendRowKeyVecs(sc.key[:0], sc.kvecs, li-lo)
		} else {
			kb, null := encodeJoinKey(sc.key[:0], lr, leftCol, len(p.keys), sc.keyBuf)
			sc.key = kb
			if null {
				continue
			}
		}
	probeMatches:
		for _, ri := range p.index.lookup(sc.key) {
			row := emptyRow
			if width > 0 {
				if cap(sc.slab)-len(sc.slab) < width {
					sc.slab = make([]Value, 0, max(width, joinSlabValues))
				}
				off := len(sc.slab)
				sc.slab = p.combine(sc.slab, lr, p.right[ri])
				row = sc.slab[off:len(sc.slab):len(sc.slab)]
			}
			for _, fn := range p.resFns {
				v, err := fn(row)
				if err != nil {
					return nil, err
				}
				if !v.Truthy() {
					sc.slab = sc.slab[:len(sc.slab)-len(row)]
					continue probeMatches
				}
			}
			if matchedLeft != nil {
				matchedLeft[li] = true
			}
			if matchedRight != nil {
				matchedRight[ri] = true
			}
			out = append(out, row)
		}
	}
	return out, nil
}

func (ctx *execContext) join(t *sqlparser.JoinExpr, left, right *relation) (*relation, error) {
	cols := append(append([]relCol{}, left.cols...), right.cols...)

	if t.Kind == sqlparser.JoinCross {
		return ctx.crossJoin(left, right)
	}

	var keys []equiKey
	var residual []sqlparser.Expr
	switch {
	case len(t.Using) > 0:
		for _, name := range t.Using {
			li, err := left.findCol("", name)
			if err != nil {
				return nil, fmt.Errorf("engine: USING column %q: %w", name, err)
			}
			ri, err := right.findCol("", name)
			if err != nil {
				return nil, fmt.Errorf("engine: USING column %q: %w", name, err)
			}
			keys = append(keys, equiKey{leftIdx: li, rightIdx: ri})
		}
	case t.On != nil:
		keys, residual = splitJoinCondition(t.On, left, right)
	default:
		return nil, fmt.Errorf("engine: join without condition")
	}

	combined := &relation{cols: cols}
	matchedLeft := make([]bool, len(left.rows))
	matchedRight := make([]bool, len(right.rows))

	// Residual predicates are compiled once against the combined column
	// layout instead of being re-walked for every candidate row pair.
	resFns := make([]evalFn, len(residual))
	for i, res := range residual {
		fn, err := compileExpr(combined, ctx, res)
		if err != nil {
			return nil, err
		}
		resFns[i] = fn
	}

	switch {
	case len(keys) > 0 && ctx.spill.Enabled() && ctx.spill.ShouldSpill(estRowsBytes(right.rows)):
		// Out-of-core path: the build side exceeds the memory budget, so the
		// join hash-partitions both inputs to disk and joins partition by
		// partition (Grace join), producing the same rows in the same order
		// as the in-memory build/probe below.
		ctx.pstats.breaker(0) // partitioned build state lives on disk
		rows, err := ctx.graceJoin(keys, resFns, left.rows, right.rows,
			len(cols), matchedLeft, matchedRight)
		if err != nil {
			return nil, err
		}
		combined.rows = rows

	case len(keys) > 0:
		// Hash join: build on the right side (morsel-parallel when workers
		// allow — see joinbuild.go), then probe with the left.
		ctx.pstats.breaker(estRowsBytes(right.rows))
		index, err := ctx.buildJoinIndex(keys, right.rows)
		if err != nil {
			return nil, err
		}
		probe := joinProbe{joinLayout: joinLayout{nLeft: len(left.cols), nRight: len(right.cols)},
			keys: keys, index: index, right: right.rows, resFns: resFns, vector: ctx.vector}
		spans := morselSpans(len(left.rows), ctx.morsel)
		if ctx.workers > 1 && len(spans) > 1 && exprsPure(residual) {
			// Morsel-parallel probe. Each left row belongs to exactly one
			// morsel, so matchedLeft writes never collide; matchedRight can be
			// hit by any worker, so each worker marks a private slice that is
			// OR-merged afterwards. Per-morsel match buffers concatenate in
			// morsel order, reproducing the serial left-to-right emit order.
			workers := spanWorkers(len(spans), ctx.workers)
			bufs := make([][][]Value, len(spans))
			workerRight := make([][]bool, workers)
			err := ctx.runSpans(spans, workers, func(w, m int, s span) error {
				if workerRight[w] == nil {
					workerRight[w] = make([]bool, len(right.rows))
				}
				buf, err := probe.scan(left.rows, s.lo, s.hi, matchedLeft, workerRight[w], nil)
				if err != nil {
					return err
				}
				bufs[m] = buf
				return nil
			})
			if err != nil {
				return nil, err
			}
			total := 0
			for _, buf := range bufs {
				total += len(buf)
			}
			combined.rows = make([][]Value, 0, total)
			for _, buf := range bufs {
				combined.rows = append(combined.rows, buf...)
			}
			for _, mr := range workerRight {
				for ri, hit := range mr {
					if hit {
						matchedRight[ri] = true
					}
				}
			}
		} else {
			rows, err := probe.scan(left.rows, 0, len(left.rows), matchedLeft, matchedRight, nil)
			if err != nil {
				return nil, err
			}
			combined.rows = rows
		}

	default:
		// Nested-loop join on the full predicate (serial: the quadratic
		// fallback is dominated by predicate evaluation over every pair, and
		// residuals here may embed subquery state that is not worker-safe).
		emit := func(li, ri int) error {
			row := make([]Value, 0, len(cols))
			row = append(row, left.rows[li]...)
			row = append(row, right.rows[ri]...)
			for _, fn := range resFns {
				v, err := fn(row)
				if err != nil {
					return err
				}
				if !v.Truthy() {
					return nil
				}
			}
			matchedLeft[li] = true
			matchedRight[ri] = true
			combined.rows = append(combined.rows, row)
			return nil
		}
		for li := range left.rows {
			if err := ctx.err(); err != nil {
				return nil, err
			}
			for ri := range right.rows {
				if err := emit(li, ri); err != nil {
					return nil, err
				}
			}
		}
	}

	// Outer-join padding.
	pad := func(src *relation, idx int, leftSide bool) {
		row := make([]Value, 0, len(cols))
		if leftSide {
			row = append(row, src.rows[idx]...)
			for range right.cols {
				row = append(row, Null)
			}
		} else {
			for range left.cols {
				row = append(row, Null)
			}
			row = append(row, src.rows[idx]...)
		}
		combined.rows = append(combined.rows, row)
	}
	// Padding scans the full input side, so it polls at morsel boundaries
	// like every other unbounded row loop (the one-morsel cancellation
	// contract covers the padding phase too).
	padSide := func(src *relation, matched []bool, leftSide bool) error {
		for i := range src.rows {
			if i%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return err
				}
			}
			if !matched[i] {
				pad(src, i, leftSide)
			}
		}
		return nil
	}
	switch t.Kind {
	case sqlparser.JoinLeft:
		if err := padSide(left, matchedLeft, true); err != nil {
			return nil, err
		}
	case sqlparser.JoinRight:
		if err := padSide(right, matchedRight, false); err != nil {
			return nil, err
		}
	case sqlparser.JoinFull:
		if err := padSide(left, matchedLeft, true); err != nil {
			return nil, err
		}
		if err := padSide(right, matchedRight, false); err != nil {
			return nil, err
		}
	}
	return combined, nil
}

// outputName derives the column name for a select item.
func outputName(item sqlparser.SelectItem, pos int) string {
	if item.Alias != "" {
		return item.Alias
	}
	switch e := item.Expr.(type) {
	case *sqlparser.ColumnRef:
		return e.Name
	case *sqlparser.FuncCall:
		return strings.ToLower(e.Name)
	}
	return fmt.Sprintf("col%d", pos)
}

// executeProjection is the non-aggregated select path. Select-list
// expressions and ORDER BY keys are compiled once against the input
// relation before the row loop. sel, when non-nil, selects the input rows
// (from the vectorized WHERE); the batch path consumes it directly, the
// scalar path materializes it.
func (ctx *execContext) executeProjection(stmt *sqlparser.SelectStmt, rel *relation, sel []int) (*ResultSet, [][]Value, error) {
	if ctx.vector && projectionPure(stmt) && projectionBatchWorthwhile(stmt) {
		return ctx.executeProjectionBatch(stmt, rel, sel)
	}
	rel = applySel(rel, sel)
	names, pspecs, err := buildProjSpecs(stmt, rel)
	if err != nil {
		return nil, nil, err
	}
	type colSpec struct {
		eval evalFn
		star bool
		from int // starting col index for stars
		upto int
	}
	specs := make([]colSpec, len(pspecs))
	for i, ps := range pspecs {
		if ps.star {
			specs[i] = colSpec{star: true, from: ps.from, upto: ps.upto}
			continue
		}
		fn, err := compileExpr(rel, ctx, ps.expr)
		if err != nil {
			return nil, nil, err
		}
		specs[i] = colSpec{eval: fn}
	}

	out := &ResultSet{Columns: names}
	var sortKeys [][]Value
	needSort := len(stmt.OrderBy) > 0
	var keyFns []sortKeyFn
	if needSort {
		fns, err := compileSortKeys(rel, ctx, stmt.OrderBy, names)
		if err != nil {
			return nil, nil, err
		}
		keyFns = fns
	}
	// project materializes output rows (and sort keys) for one input range.
	project := func(lo, hi int) ([][]Value, [][]Value, error) {
		rows := make([][]Value, 0, hi-lo)
		var keys [][]Value
		if needSort {
			keys = make([][]Value, 0, hi-lo)
		}
		for i, row := range rel.rows[lo:hi] {
			if i%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return nil, nil, err
				}
			}
			outRow := make([]Value, 0, len(names))
			for _, spec := range specs {
				if spec.star {
					outRow = append(outRow, row[spec.from:spec.upto]...)
					continue
				}
				v, err := spec.eval(row)
				if err != nil {
					return nil, nil, err
				}
				outRow = append(outRow, v)
			}
			rows = append(rows, outRow)
			if needSort {
				key := make([]Value, len(keyFns))
				for i, fn := range keyFns {
					v, err := fn(row, outRow)
					if err != nil {
						return nil, nil, err
					}
					key[i] = v
				}
				keys = append(keys, key)
			}
		}
		return rows, keys, nil
	}

	spans := morselSpans(len(rel.rows), ctx.morsel)
	if ctx.workers > 1 && len(spans) > 1 && projectionPure(stmt) {
		// Morsel-parallel projection: per-morsel output buffers concatenate
		// in morsel order, so row order and sort keys match the serial scan.
		rowBufs := make([][][]Value, len(spans))
		keyBufs := make([][][]Value, len(spans))
		err := ctx.runSpans(spans, ctx.workers, func(_, m int, s span) error {
			rows, keys, err := project(s.lo, s.hi)
			if err != nil {
				return err
			}
			rowBufs[m], keyBufs[m] = rows, keys
			return nil
		})
		if err != nil {
			return nil, nil, err
		}
		total := 0
		for _, buf := range rowBufs {
			total += len(buf)
		}
		out.Rows = make([][]Value, 0, total)
		for m := range rowBufs {
			out.Rows = append(out.Rows, rowBufs[m]...)
			if needSort {
				sortKeys = append(sortKeys, keyBufs[m]...)
			}
		}
		return out, sortKeys, nil
	}

	rows, keys, err := project(0, len(rel.rows))
	if err != nil {
		return nil, nil, err
	}
	out.Rows = rows
	return out, keys, nil
}

// projSpec is one select item resolved against the input relation: either a
// star copying the column range [from, upto) or an expression to evaluate.
// Shared by the scalar and batch projection paths so output names and star
// expansion cannot diverge between them.
type projSpec struct {
	expr sqlparser.Expr
	star bool
	from int
	upto int
}

// buildProjSpecs expands the select list against rel's columns, producing
// the output column names and per-item specs.
func buildProjSpecs(stmt *sqlparser.SelectStmt, rel *relation) ([]string, []projSpec, error) {
	var names []string
	var specs []projSpec
	for i, item := range stmt.Columns {
		switch {
		case item.Star:
			for _, c := range rel.cols {
				names = append(names, c.name)
			}
			specs = append(specs, projSpec{star: true, from: 0, upto: len(rel.cols)})
		case item.TableStar != "":
			qual := strings.ToLower(item.TableStar)
			start := -1
			end := -1
			for ci, c := range rel.cols {
				if c.qual == qual {
					if start < 0 {
						start = ci
					}
					end = ci + 1
					names = append(names, c.name)
				}
			}
			if start < 0 {
				return nil, nil, fmt.Errorf("engine: unknown table alias %q in %s.*",
					item.TableStar, item.TableStar)
			}
			specs = append(specs, projSpec{star: true, from: start, upto: end})
		default:
			names = append(names, outputName(item, i))
			specs = append(specs, projSpec{expr: item.Expr})
		}
	}
	return names, specs, nil
}

// batchSortKey is one compiled ORDER BY key for the batch projection:
// positional and output-alias references become output-row index lookups
// (checked positionals keep the row path's out-of-range error), everything
// else a batch kernel over the input relation.
type batchSortKey struct {
	pos   int   // output-row index when eval is nil
	want  int64 // 1-based positional literal, for the error message
	check bool  // positional literal: range-check against the output width
	eval  batchExpr
}

// compileBatchSortKeys mirrors compileSortKeys for the batch path.
func compileBatchSortKeys(rel *relation, ctx *execContext, orderBy []sqlparser.OrderItem, outCols []string) []batchSortKey {
	keys := make([]batchSortKey, len(orderBy))
	for i, item := range orderBy {
		if lit, ok := item.Expr.(*sqlparser.IntLit); ok {
			keys[i] = batchSortKey{pos: int(lit.Value) - 1, want: lit.Value, check: true}
			continue
		}
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			found := -1
			for ci, name := range outCols {
				if strings.EqualFold(name, ref.Name) {
					found = ci
					break
				}
			}
			if found >= 0 {
				keys[i] = batchSortKey{pos: found}
				continue
			}
		}
		keys[i] = batchSortKey{eval: compileBatchExpr(rel, ctx, item.Expr)}
	}
	return keys
}

// executeProjectionBatch is the vectorized projection: every select-list
// expression and computed ORDER BY key evaluates as a batch kernel over each
// morsel's selection, and output rows materialize from the result vectors
// into one slab per morsel. Per-morsel outputs concatenate in morsel order.
//
// Error determinism: within one morsel, each expression evaluates over the
// prefix the previous expressions completed (the batchExpr contract), so the
// surviving (row, expression) error is the first one the scalar row loop —
// which evaluates select items then sort keys left to right for each row —
// would hit; across morsels, runSpans keeps the lowest failing morsel.
// Positional ORDER BY references out of range fail at the first row of the
// current prefix, matching the row path's error-on-first-evaluated-row.
func (ctx *execContext) executeProjectionBatch(stmt *sqlparser.SelectStmt, rel *relation, sel []int) (*ResultSet, [][]Value, error) {
	names, specs, err := buildProjSpecs(stmt, rel)
	if err != nil {
		return nil, nil, err
	}
	// Map each expression spec to its result-vector slot.
	vecSlot := make([]int, len(specs))
	nEval := 0
	for i, ps := range specs {
		vecSlot[i] = nEval
		if !ps.star {
			nEval++
		}
	}
	evals := make([]batchExpr, 0, nEval)
	for _, ps := range specs {
		if !ps.star {
			evals = append(evals, compileBatchExpr(rel, ctx, ps.expr))
		}
	}
	needSort := len(stmt.OrderBy) > 0
	var keySpecs []batchSortKey
	if needSort {
		keySpecs = compileBatchSortKeys(rel, ctx, stmt.OrderBy, names)
	}

	ids := sel
	if ids == nil {
		ids = identitySel(len(rel.rows))
	}
	out := &ResultSet{Columns: names}
	spans := morselSpans(len(ids), ctx.spanSize(len(rel.cols)))
	if len(spans) == 0 {
		out.Rows = [][]Value{}
		return out, nil, nil
	}
	workers := spanWorkers(len(spans), ctx.workers)
	type projWorker struct {
		bc      *batchCtx
		vecs    []*vector // select-list result vectors
		keyVecs []*vector // computed ORDER BY key vectors
	}
	pws := make([]*projWorker, workers)
	rowBufs := make([][][]Value, len(spans))
	keyBufs := make([][][]Value, len(spans))
	width := len(names)
	err = ctx.runSpans(spans, workers, func(w, m int, s span) error {
		pw := pws[w]
		if pw == nil {
			pw = &projWorker{bc: &batchCtx{rows: rel.rows}}
			pw.vecs = make([]*vector, nEval)
			for i := range pw.vecs {
				pw.vecs[i] = &vector{}
			}
			pw.keyVecs = make([]*vector, len(keySpecs))
			for i := range pw.keyVecs {
				pw.keyVecs[i] = &vector{}
			}
			pws[w] = pw
		}
		msel := ids[s.lo:s.hi]

		// Chained prefix evaluation: each expression sees only the rows every
		// earlier expression completed, so nOK/evalErr end up at the
		// row-major-first failure.
		nOK := len(msel)
		var evalErr error
		for vi, fn := range evals {
			n, err := fn(pw.bc, msel[:nOK], pw.vecs[vi])
			if err != nil {
				nOK, evalErr = n, err
			}
		}
		for ki, ks := range keySpecs {
			if ks.eval != nil {
				n, err := ks.eval(pw.bc, msel[:nOK], pw.keyVecs[ki])
				if err != nil {
					nOK, evalErr = n, err
				}
				continue
			}
			if ks.check && (ks.pos < 0 || ks.pos >= width) && nOK > 0 {
				nOK, evalErr = 0, fmt.Errorf("engine: ORDER BY position %d out of range", ks.want)
			}
		}

		// Materialize output rows from the result vectors, one slab per morsel.
		slab := make([]Value, 0, nOK*width)
		rows := make([][]Value, 0, nOK)
		for i := 0; i < nOK; i++ {
			off := len(slab)
			for si, ps := range specs {
				if ps.star {
					slab = append(slab, rel.rows[msel[i]][ps.from:ps.upto]...)
					continue
				}
				slab = append(slab, pw.vecs[vecSlot[si]].value(i))
			}
			rows = append(rows, slab[off:len(slab):len(slab)])
		}
		rowBufs[m] = rows
		if needSort {
			keys := make([][]Value, nOK)
			keySlab := make([]Value, nOK*len(keySpecs))
			for i := 0; i < nOK; i++ {
				key := keySlab[i*len(keySpecs) : (i+1)*len(keySpecs) : (i+1)*len(keySpecs)]
				for ki, ks := range keySpecs {
					if ks.eval != nil {
						key[ki] = pw.keyVecs[ki].value(i)
					} else {
						key[ki] = rows[i][ks.pos]
					}
				}
				keys[i] = key
			}
			keyBufs[m] = keys
		}
		return evalErr
	})
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, buf := range rowBufs {
		total += len(buf)
	}
	out.Rows = make([][]Value, 0, total)
	var sortKeys [][]Value
	if needSort {
		sortKeys = make([][]Value, 0, total)
	}
	for m := range rowBufs {
		out.Rows = append(out.Rows, rowBufs[m]...)
		if needSort {
			sortKeys = append(sortKeys, keyBufs[m]...)
		}
	}
	return out, sortKeys, nil
}

// projectionPure reports whether a non-aggregated SELECT body's per-row
// expressions (select list and ORDER BY keys) are all subquery-free, making
// the compiled projection closures safe to share across workers.
func projectionPure(stmt *sqlparser.SelectStmt) bool {
	for _, item := range stmt.Columns {
		if item.Expr != nil && !exprPure(item.Expr) {
			return false
		}
	}
	for _, item := range stmt.OrderBy {
		if !exprPure(item.Expr) {
			return false
		}
	}
	return true
}

// projectionBatchWorthwhile reports whether the select list or sort keys
// contain computed expressions that batch kernels can actually accelerate.
// A projection of bare columns (SELECT a, b, *) only copies values; routing
// it through vectors would gather row-major data into slabs and immediately
// materialize rows back out — pure overhead — so those stay on the scalar
// path.
func projectionBatchWorthwhile(stmt *sqlparser.SelectStmt) bool {
	computed := func(e sqlparser.Expr) bool {
		switch e.(type) {
		case *sqlparser.ColumnRef, *sqlparser.IntLit:
			return false
		}
		return true
	}
	for _, item := range stmt.Columns {
		if item.Expr != nil && computed(item.Expr) {
			return true
		}
	}
	for _, item := range stmt.OrderBy {
		if computed(item.Expr) {
			return true
		}
	}
	return false
}

// sortKeyFn computes one ORDER BY key for a row, given both the input row
// and the projected output row (positional and alias references resolve
// against the output, everything else against the input).
type sortKeyFn func(row, outRow []Value) (Value, error)

// compileSortKeys binds each ORDER BY item once: positional references and
// output-alias references become index lookups into the output row, and all
// other expressions compile against the input relation.
func compileSortKeys(rel *relation, ctx *execContext, orderBy []sqlparser.OrderItem, outCols []string) ([]sortKeyFn, error) {
	fns := make([]sortKeyFn, len(orderBy))
	for i, item := range orderBy {
		// Positional reference: ORDER BY 2.
		if lit, ok := item.Expr.(*sqlparser.IntLit); ok {
			pos := int(lit.Value) - 1
			want := lit.Value
			fns[i] = func(_, outRow []Value) (Value, error) {
				if pos < 0 || pos >= len(outRow) {
					return Null, fmt.Errorf("engine: ORDER BY position %d out of range", want)
				}
				return outRow[pos], nil
			}
			continue
		}
		// Output alias reference.
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			found := -1
			for ci, name := range outCols {
				if strings.EqualFold(name, ref.Name) {
					found = ci
					break
				}
			}
			if found >= 0 {
				ci := found
				fns[i] = func(_, outRow []Value) (Value, error) { return outRow[ci], nil }
				continue
			}
		}
		fn, err := compileExpr(rel, ctx, item.Expr)
		if err != nil {
			return nil, err
		}
		fns[i] = func(row, _ []Value) (Value, error) { return fn(row) }
	}
	return fns, nil
}

// evalSortKey computes ORDER BY key values for one output row. Each ORDER BY
// expression resolves first against output aliases/positions, then against
// the row environment.
func evalSortKey(env *rowEnv, orderBy []sqlparser.OrderItem, out *ResultSet, outRow []Value) ([]Value, error) {
	key := make([]Value, len(orderBy))
	for i, item := range orderBy {
		// Positional reference: ORDER BY 2.
		if lit, ok := item.Expr.(*sqlparser.IntLit); ok {
			pos := int(lit.Value) - 1
			if pos < 0 || pos >= len(outRow) {
				return nil, fmt.Errorf("engine: ORDER BY position %d out of range", lit.Value)
			}
			key[i] = outRow[pos]
			continue
		}
		// Output alias reference.
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			found := false
			for ci, name := range out.Columns {
				if strings.EqualFold(name, ref.Name) {
					key[i] = outRow[ci]
					found = true
					break
				}
			}
			if found {
				continue
			}
		}
		if env == nil {
			return nil, fmt.Errorf("engine: ORDER BY expression %s not resolvable after set operation",
				sqlparser.PrintExpr(item.Expr))
		}
		v, err := evalExpr(env, item.Expr)
		if err != nil {
			return nil, err
		}
		key[i] = v
	}
	return key, nil
}

func sortResult(ctx *execContext, out *ResultSet, orderBy []sqlparser.OrderItem, sortKeys [][]Value) error {
	if sortKeys == nil {
		// Resolve against output columns/positions only (post-set-op case, or
		// aggregate path fallbacks).
		sortKeys = make([][]Value, len(out.Rows))
		for i, row := range out.Rows {
			if ctx != nil && i%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return err
				}
			}
			key, err := evalSortKey(nil, orderBy, out, row)
			if err != nil {
				return err
			}
			sortKeys[i] = key
		}
	}
	// Enabled is checked first so the disabled (default) path never pays
	// the O(rows) size estimation.
	if ctx != nil && ctx.spill.Enabled() &&
		ctx.spill.ShouldSpill(estRowsBytes(out.Rows)+estRowsBytes(sortKeys)) {
		sorted, err := ctx.externalSort(out, orderBy, sortKeys)
		if err != nil {
			return err
		}
		if sorted {
			return nil
		}
	}
	// Large inputs with real parallelism available sort as parallel runs plus
	// a fan-in merge — bit-identical to the stable sort below because the
	// run/merge order carries the original index as a tiebreak (extsort.go).
	if ctx != nil && ctx.workers > 1 && len(out.Rows) >= parallelSortMin {
		return ctx.sortRowsParallel(out, orderBy, sortKeys)
	}
	idx := make([]int, len(out.Rows))
	for i := range idx {
		idx[i] = i
	}
	// compareOrd (not Compare) keeps this comparator a total preorder even
	// over NaN keys, which makes the stable sort's output comparator-defined
	// rather than algorithm-defined — the property the external sort's
	// bit-identical guarantee rests on (see extsort.go).
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := sortKeys[idx[a]], sortKeys[idx[b]]
		for i := range orderBy {
			c := compareOrd(ka[i], kb[i])
			if orderBy[i].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	sorted := make([][]Value, len(out.Rows))
	for i, j := range idx {
		sorted[i] = out.Rows[j]
	}
	out.Rows = sorted
	return nil
}

func applyLimitOffset(out *ResultSet, stmt *sqlparser.SelectStmt, ctx *execContext) error {
	evalInt := func(e sqlparser.Expr) (int, error) {
		env := &rowEnv{rel: &relation{}, row: nil, ctx: ctx}
		v, err := evalExpr(env, e)
		if err != nil {
			return 0, err
		}
		if v.Kind != KindInt {
			return 0, fmt.Errorf("engine: LIMIT/OFFSET must be integer, got %s", v.Kind)
		}
		return int(v.Int), nil
	}
	if stmt.Offset != nil {
		off, err := evalInt(stmt.Offset)
		if err != nil {
			return err
		}
		if off < 0 {
			off = 0
		}
		if off > len(out.Rows) {
			off = len(out.Rows)
		}
		out.Rows = out.Rows[off:]
	}
	if stmt.Limit != nil {
		lim, err := evalInt(stmt.Limit)
		if err != nil {
			return err
		}
		if lim < 0 {
			lim = 0
		}
		if lim < len(out.Rows) {
			out.Rows = out.Rows[:lim]
		}
	}
	return nil
}

// dedupeRows removes duplicate output rows, keeping each row's first
// occurrence in input order. The seen set grows with the number of
// distinct rows, so when the input's estimated footprint exceeds the
// memory budget the dedup runs partitioned out-of-core (aggspill.go) —
// bit-identical by construction.
func (ctx *execContext) dedupeRows(out *ResultSet, sortKeys [][]Value) (*ResultSet, [][]Value, error) {
	ctx.pstats.breaker(0) // key-set state over the full output
	if ctx.spill.Enabled() && ctx.spill.ShouldSpill(estRowsBytes(out.Rows)) {
		return ctx.dedupeRowsSpilled(out, sortKeys)
	}
	seen := make(map[string]bool, len(out.Rows))
	var rows [][]Value
	var keys [][]Value
	var scratch []byte
	for i, row := range out.Rows {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				return nil, nil, err
			}
		}
		scratch = AppendRowKey(scratch[:0], row)
		if seen[string(scratch)] {
			continue
		}
		seen[string(scratch)] = true
		rows = append(rows, row)
		if sortKeys != nil {
			keys = append(keys, sortKeys[i])
		}
	}
	out.Rows = rows
	if sortKeys == nil {
		return out, nil, nil
	}
	return out, keys, nil
}

// setOpKeep decides whether one left row survives an INTERSECT or EXCEPT,
// given the right side's remaining multiplicities and (for the DISTINCT
// forms) the keys already emitted. It mutates counts/seen, so callers must
// present a key's occurrences in left-row order:
//
//	INTERSECT ALL  — keep min(l, r) copies: consume one right multiplicity
//	                 per kept row.
//	INTERSECT      — keep the first occurrence of keys present in right.
//	EXCEPT ALL     — keep max(l-r, 0) copies: each right multiplicity
//	                 cancels one left occurrence, earliest first.
//	EXCEPT         — keep the first occurrence of keys absent from right.
//
// Shared by the in-memory loop below and the per-partition loop of the
// spilled path (aggspill.go), which is what keeps the two bit-identical.
func setOpKeep(kind sqlparser.SetOpKind, all bool, key string, counts map[string]int, seen map[string]bool) bool {
	switch kind {
	case sqlparser.SetIntersect:
		if all {
			if counts[key] > 0 {
				counts[key]--
				return true
			}
			return false
		}
		if counts[key] > 0 && !seen[key] {
			seen[key] = true
			return true
		}
	case sqlparser.SetExcept:
		if all {
			if counts[key] > 0 {
				counts[key]--
				return false
			}
			return true
		}
		if counts[key] == 0 && !seen[key] {
			seen[key] = true
			return true
		}
	}
	return false
}

// applySetOp evaluates one set operation. UNION concatenates (deduping
// through the budget-aware dedupeRows unless ALL); INTERSECT and EXCEPT
// run the multiset arithmetic of setOpKeep over right-side multiplicity
// counts, out-of-core when the two sides' key state would exceed the
// memory budget.
func (ctx *execContext) applySetOp(left, right *ResultSet, kind sqlparser.SetOpKind, all bool) (*ResultSet, error) {
	if kind == sqlparser.SetUnion {
		out := &ResultSet{Columns: left.Columns,
			Rows: append(append([][]Value{}, left.Rows...), right.Rows...)}
		if !all {
			var err error
			out, _, err = ctx.dedupeRows(out, nil)
			if err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	ctx.pstats.breaker(0) // right-side multiplicity state
	if ctx.spill.Enabled() &&
		ctx.spill.ShouldSpill(estRowsBytes(left.Rows)+estRowsBytes(right.Rows)) {
		return ctx.setOpSpilled(left, right, kind, all)
	}
	counts := make(map[string]int, len(right.Rows))
	var scratch []byte
	for i, r := range right.Rows {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				return nil, err
			}
		}
		scratch = AppendRowKey(scratch[:0], r)
		counts[string(scratch)]++
	}
	var seen map[string]bool
	if !all {
		seen = make(map[string]bool, len(left.Rows))
	}
	out := &ResultSet{Columns: left.Columns}
	for i, r := range left.Rows {
		if i%ctx.morsel == 0 {
			if err := ctx.err(); err != nil {
				return nil, err
			}
		}
		scratch = AppendRowKey(scratch[:0], r)
		if setOpKeep(kind, all, string(scratch), counts, seen) {
			out.Rows = append(out.Rows, r)
		}
	}
	return out, nil
}
