package engine

import (
	"context"
	"fmt"
	"sync"

	"flexdp/internal/sqlparser"
)

// This file implements prepare-once/run-many execution: a PreparedQuery
// parses its SQL a single time and keeps a cache of the closure trees that
// compile.go builds, so repeated executions skip both the parser and the
// per-relation expression compilation. The cache is keyed by (expression
// identity, column-layout signature) — a compiled closure only captures
// column indices, so it is valid for any relation with the same layout — and
// is invalidated wholesale when the database version changes, since closures
// that embed memoized subquery results depend on the data (those are never
// cached) and a schema change can re-shape every layout.

// planKey identifies one cached compiled expression: the AST node (stable
// pointer for the lifetime of the prepared statement) plus the column layout
// it was bound against.
type planKey struct {
	expr sqlparser.Expr
	sig  string
}

// planCache memoizes compiled expression closures. Safe for concurrent use;
// a lost race on put costs one redundant compilation, never correctness,
// because both goroutines compile the same expression against the same
// layout.
type planCache struct {
	mu sync.RWMutex
	m  map[planKey]evalFn
	mb map[planKey]batchExpr
	// sp memoizes the plan rewrite of each SELECT body with a join (nil
	// entries included: "nothing to rewrite" is also worth remembering).
	sp map[*sqlparser.SelectStmt]*selectPlan
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[planKey]evalFn), mb: make(map[planKey]batchExpr),
		sp: make(map[*sqlparser.SelectStmt]*selectPlan)}
}

// planFor returns the SELECT body's plan rewrite, memoized with the prepared
// statement's other compiled state: leaf schemas, and with them the plan, can
// only change when the database version does.
func (ctx *execContext) planFor(stmt *sqlparser.SelectStmt) *selectPlan {
	if !hasJoin(stmt) {
		return nil // before anything allocates: most statements have no join
	}
	schema := func(t *sqlparser.TableName) ([]relCol, bool) {
		rel, err := ctx.buildTableExpr(t)
		if err != nil {
			return nil, false
		}
		return rel.cols, true
	}
	if ctx.plans == nil {
		return planSelect(stmt, schema)
	}
	ctx.plans.mu.RLock()
	sp, ok := ctx.plans.sp[stmt]
	ctx.plans.mu.RUnlock()
	if !ok {
		sp = planSelect(stmt, schema)
		ctx.plans.mu.Lock()
		ctx.plans.sp[stmt] = sp
		ctx.plans.mu.Unlock()
	}
	return sp
}

func (p *planCache) get(e sqlparser.Expr, sig string) (evalFn, bool) {
	p.mu.RLock()
	fn, ok := p.m[planKey{expr: e, sig: sig}]
	p.mu.RUnlock()
	return fn, ok
}

func (p *planCache) put(e sqlparser.Expr, sig string, fn evalFn) {
	p.mu.Lock()
	p.m[planKey{expr: e, sig: sig}] = fn
	p.mu.Unlock()
}

// getBatch/putBatch memoize vectorized kernels alongside the row closures,
// under the same (expression identity, layout signature) key. Only pure
// expressions reach the batch compiler, so every cached kernel is stateless
// and shareable across executions and workers.
func (p *planCache) getBatch(e sqlparser.Expr, sig string) (batchExpr, bool) {
	p.mu.RLock()
	fn, ok := p.mb[planKey{expr: e, sig: sig}]
	p.mu.RUnlock()
	return fn, ok
}

func (p *planCache) putBatch(e sqlparser.Expr, sig string, fn batchExpr) {
	p.mu.Lock()
	p.mb[planKey{expr: e, sig: sig}] = fn
	p.mu.Unlock()
}

// size reports the number of cached closures (for tests).
func (p *planCache) size() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.m)
}

// PreparedQuery is a parsed SELECT statement bound to a database, reusable
// across calls and goroutines. Exec re-reads the current table contents on
// every call, so a prepared query always answers against live data; only
// the parse and the compiled closure trees are reused, and those are
// flushed automatically when the database version changes.
type PreparedQuery struct {
	db   *DB
	sql  string
	stmt *sqlparser.SelectStmt

	mu      sync.Mutex
	plans   *planCache
	version uint64 // database version the plan cache was built at
}

// Prepare parses sql once and returns a reusable prepared query. Semantic
// errors (unknown tables or columns) surface on Exec, matching Query.
func (db *DB) Prepare(sql string) (*PreparedQuery, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return db.PrepareStmt(sql, stmt)
}

// PrepareStmt is Prepare over a statement the caller already parsed from
// sql, for front ends that parse once and share the AST between analysis and
// execution. The statement is shared, never mutated.
func (db *DB) PrepareStmt(sql string, stmt *sqlparser.SelectStmt) (*PreparedQuery, error) {
	if stmt.Explain {
		// A prepared statement is a reusable query; EXPLAIN ANALYZE is a
		// one-shot diagnostic. Run it through Query/QueryContext instead.
		return nil, fmt.Errorf("engine: cannot prepare an EXPLAIN ANALYZE statement")
	}
	return &PreparedQuery{db: db, sql: sql, stmt: stmt}, nil
}

// SQL returns the prepared statement's original text.
func (p *PreparedQuery) SQL() string { return p.sql }

// Statement exposes the parsed AST (read-only; shared across executions).
func (p *PreparedQuery) Statement() *sqlparser.SelectStmt { return p.stmt }

// plansFor returns the plan cache valid for the given database version,
// replacing a stale one.
func (p *PreparedQuery) plansFor(version uint64) *planCache {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.plans == nil || p.version != version {
		p.plans = newPlanCache()
		p.version = version
	}
	return p.plans
}

// Exec runs the prepared statement against the database's current contents:
// a thin wrapper over ExecContext with context.Background(). Prefer the
// context-first form in code that has a real context to pass. It is safe for
// concurrent use.
func (p *PreparedQuery) Exec() (*ResultSet, error) {
	return p.ExecContext(context.Background())
}

// ExecContext is the primary execution form of a prepared statement:
// cancellation or deadline expiry aborts execution within one morsel of work
// per worker and returns the context's error unwrapped; a panic during
// execution is recovered into a *PanicError. The cached plans survive both —
// closures carry no per-execution state, so a cancelled or panicked run never
// poisons the cache for later executions. Each call snapshots the database's
// ExecConfig, so SetParallelism and friends take effect between executions
// without invalidating the cached plans — compiled closures are
// schedule-independent, and results are bit-identical at every worker count.
func (p *PreparedQuery) ExecContext(goctx context.Context) (rs *ResultSet, err error) {
	return p.ExecContextConfig(goctx, p.db.ExecConfig())
}

// ExecContextConfig runs the prepared statement against an explicit
// execution config instead of the database's defaults — the per-query
// override surface, most importantly cfg.Profile for requesting an
// execution trace. The cached plans are shared with every other execution
// of this statement; profiling decorates the pipeline, never the plans.
func (p *PreparedQuery) ExecContextConfig(goctx context.Context, cfg ExecConfig) (*ResultSet, error) {
	return p.db.exec(goctx, p.stmt, cfg, p.plansFor(p.db.Version()))
}
