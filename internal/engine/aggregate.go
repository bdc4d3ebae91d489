package engine

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"flexdp/internal/sqlparser"
)

// executeAggregate is the serial grouped-aggregation loop, for the
// statements the streaming sink cannot evaluate (aggregateParallelizable):
// subqueries, SELECT * with aggregation, and ill-formed aggregate calls. It
// groups the materialized input by the GROUP BY keys, then evaluates HAVING,
// the select list, and ORDER BY keys per group, reducing aggregates over the
// group's rows; an aggregate without GROUP BY has one implicit group. stmt
// has positional GROUP BY references already resolved.
func (ctx *execContext) executeAggregate(stmt *sqlparser.SelectStmt, rel *relation) (*ResultSet, [][]Value, error) {
	// The grouping state over the full input is a pipeline breaker.
	ctx.pstats.breaker(0)

	// Partition rows into groups keyed by the GROUP BY expressions.
	type group struct {
		keyVals []Value
		rows    [][]Value
	}
	var groups []*group
	if len(stmt.GroupBy) == 0 {
		groups = []*group{{rows: rel.rows}}
	} else {
		// Key expressions are compiled once against the input relation; the
		// per-row work is then index lookups plus the composite key encode.
		keyFns := make([]evalFn, len(stmt.GroupBy))
		for i, e := range stmt.GroupBy {
			fn, err := compileExpr(rel, ctx, e)
			if err != nil {
				return nil, nil, err
			}
			keyFns[i] = fn
		}
		index := make(map[string]*group)
		var order []string
		var scratch []byte
		for ri, row := range rel.rows {
			if ri%ctx.morsel == 0 {
				if err := ctx.err(); err != nil {
					return nil, nil, err
				}
			}
			keyVals := make([]Value, len(keyFns))
			for i, fn := range keyFns {
				v, err := fn(row)
				if err != nil {
					return nil, nil, err
				}
				keyVals[i] = v
			}
			scratch = AppendRowKey(scratch[:0], keyVals)
			g, ok := index[string(scratch)]
			if !ok {
				k := string(scratch)
				g = &group{keyVals: keyVals}
				index[k] = g
				order = append(order, k)
			}
			g.rows = append(g.rows, row)
		}
		for _, k := range order {
			groups = append(groups, index[k])
		}
	}

	var names []string
	for i, item := range stmt.Columns {
		if item.Star || item.TableStar != "" {
			return nil, nil, fmt.Errorf("engine: SELECT * is not valid with aggregation")
		}
		names = append(names, outputName(item, i))
	}

	out := &ResultSet{Columns: names}
	var sortKeys [][]Value
	needSort := len(stmt.OrderBy) > 0
	// Aggregate-input expressions compile once and are shared by every
	// group through this cache (AST nodes are stable pointers).
	cache := newExprCache()
	for _, g := range groups {
		genv := &groupEnv{ctx: ctx, rel: rel, rows: g.rows, groupBy: stmt.GroupBy,
			keyVals: g.keyVals, cache: cache}
		if stmt.Having != nil {
			hv, err := genv.eval(stmt.Having)
			if err != nil {
				return nil, nil, err
			}
			if !hv.Truthy() {
				continue
			}
		}
		row := make([]Value, len(stmt.Columns))
		for i, item := range stmt.Columns {
			v, err := genv.eval(item.Expr)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
		if needSort {
			key, err := genv.sortKey(stmt.OrderBy, out, row)
			if err != nil {
				return nil, nil, err
			}
			sortKeys = append(sortKeys, key)
		}
	}
	return out, sortKeys, nil
}

// resolvePositionalGroupBy maps integer-literal GROUP BY items onto the
// select list (SQL's positional form). It returns nil when nothing needs
// resolving.
func resolvePositionalGroupBy(stmt *sqlparser.SelectStmt) ([]sqlparser.Expr, error) {
	hasPositional := false
	for _, g := range stmt.GroupBy {
		if _, ok := g.(*sqlparser.IntLit); ok {
			hasPositional = true
			break
		}
	}
	if !hasPositional {
		return nil, nil
	}
	out := make([]sqlparser.Expr, len(stmt.GroupBy))
	for i, g := range stmt.GroupBy {
		lit, ok := g.(*sqlparser.IntLit)
		if !ok {
			out[i] = g
			continue
		}
		pos := int(lit.Value) - 1
		if pos < 0 || pos >= len(stmt.Columns) {
			return nil, fmt.Errorf("engine: GROUP BY position %d out of range", lit.Value)
		}
		item := stmt.Columns[pos]
		if item.Star || item.TableStar != "" || item.Expr == nil {
			return nil, fmt.Errorf("engine: GROUP BY position %d refers to a star item", lit.Value)
		}
		out[i] = item.Expr
	}
	return out, nil
}

// exprCache holds compiled per-row evaluators keyed by AST node, shared
// across the groups of one aggregation so each aggregate input is compiled
// exactly once per query. It is mutex-guarded because the sink's output
// phase and the spilled drain evaluate groups from multiple workers; the
// serial loop pays one uncontended lock per compiled-expression lookup, which
// is per group, not per row.
type exprCache struct {
	mu sync.RWMutex
	m  map[sqlparser.Expr]evalFn
}

func newExprCache() *exprCache {
	return &exprCache{m: make(map[sqlparser.Expr]evalFn)}
}

// groupEnv evaluates expressions in the context of one group: aggregate
// calls reduce over the group's rows; other column references resolve
// against the group's first row (valid for GROUP BY keys and functionally
// dependent columns).
//
// The environment has two backing modes. In serial mode rows holds the
// group's full row list and aggregates reduce over it on demand. In sink
// mode par holds the group's merged partial-aggregation state (per-slot
// value runs or folds, row count, first row) built by the streaming sink,
// and slotOf maps each aggregate call in the statement to its slot in that
// state; rows is nil.
type groupEnv struct {
	ctx     *execContext
	rel     *relation
	rows    [][]Value
	groupBy []sqlparser.Expr
	keyVals []Value
	cache   *exprCache

	par    *parGroup
	slotOf map[*sqlparser.FuncCall]int
}

// compiled returns the compiled evaluator for e, memoized across groups.
func (g *groupEnv) compiled(e sqlparser.Expr) (evalFn, error) {
	if g.cache != nil {
		g.cache.mu.RLock()
		fn, ok := g.cache.m[e]
		g.cache.mu.RUnlock()
		if ok {
			return fn, nil
		}
	}
	fn, err := compileExpr(g.rel, g.ctx, e)
	if err != nil {
		return nil, err
	}
	if g.cache != nil {
		g.cache.mu.Lock()
		g.cache.m[e] = fn
		g.cache.mu.Unlock()
	}
	return fn, nil
}

// firstRow returns the group's first row in scan order, or ok=false for an
// empty group (the implicit single group of an aggregate over no rows).
func (g *groupEnv) firstRow() ([]Value, bool) {
	if g.par != nil {
		return g.par.first, g.par.first != nil
	}
	if len(g.rows) == 0 {
		return nil, false
	}
	return g.rows[0], true
}

func (g *groupEnv) eval(e sqlparser.Expr) (Value, error) {
	// A GROUP BY expression evaluates to the group's key value even when it
	// is not a bare column (e.g. GROUP BY a+b ... SELECT a+b).
	for i, gb := range g.groupBy {
		if exprEqual(e, gb) {
			return g.keyVals[i], nil
		}
	}
	switch x := e.(type) {
	case *sqlparser.FuncCall:
		if sqlparser.IsAggregateFunc(x.Name) {
			return g.evalAggregate(x)
		}
	case *sqlparser.BinaryExpr:
		if x.Op == "AND" || x.Op == "OR" {
			// Short-circuit semantics are preserved by re-dispatching through
			// a shim row env would lose aggregates, so evaluate eagerly here;
			// aggregate results never error on the second operand.
			l, err := g.eval(x.Left)
			if err != nil {
				return Null, err
			}
			r, err := g.eval(x.Right)
			if err != nil {
				return Null, err
			}
			return combineLogical(x.Op, l, r)
		}
		if sqlparser.ContainsAggregate(x.Left) || sqlparser.ContainsAggregate(x.Right) {
			l, err := g.eval(x.Left)
			if err != nil {
				return Null, err
			}
			r, err := g.eval(x.Right)
			if err != nil {
				return Null, err
			}
			return applyBinaryValues(x.Op, l, r)
		}
	case *sqlparser.CaseExpr:
		if sqlparser.ContainsAggregate(e) {
			return g.evalAggCase(x)
		}
	case *sqlparser.UnaryExpr:
		if sqlparser.ContainsAggregate(x.Expr) {
			v, err := g.eval(x.Expr)
			if err != nil {
				return Null, err
			}
			switch x.Op {
			case "NOT":
				if v.IsNull() {
					return Null, nil
				}
				return NewBool(!v.Truthy()), nil
			case "-":
				if v.Kind == KindInt {
					return NewInt(-v.Int), nil
				}
				return NewFloat(-v.AsFloat()), nil
			}
		}
	}
	// Non-aggregate expression: evaluate against the group's first row.
	first, ok := g.firstRow()
	if !ok {
		return Null, nil
	}
	fn, err := g.compiled(e)
	if err != nil {
		return Null, err
	}
	return fn(first)
}

func (g *groupEnv) evalAggCase(x *sqlparser.CaseExpr) (Value, error) {
	for _, w := range x.Whens {
		cond, err := g.eval(w.Cond)
		if err != nil {
			return Null, err
		}
		matched := false
		if x.Operand != nil {
			op, err := g.eval(x.Operand)
			if err != nil {
				return Null, err
			}
			matched = Equal(op, cond)
		} else {
			matched = cond.Truthy()
		}
		if matched {
			return g.eval(w.Result)
		}
	}
	if x.Else != nil {
		return g.eval(x.Else)
	}
	return Null, nil
}

func combineLogical(op string, l, r Value) (Value, error) {
	switch op {
	case "AND":
		if (!l.IsNull() && !l.Truthy()) || (!r.IsNull() && !r.Truthy()) {
			return NewBool(false), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewBool(true), nil
	case "OR":
		if l.Truthy() || r.Truthy() {
			return NewBool(true), nil
		}
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewBool(false), nil
	}
	return Null, fmt.Errorf("engine: not a logical op %q", op)
}

// applyBinaryValues applies a non-logical binary operator to two computed
// values (used when one side is an aggregate result).
func applyBinaryValues(op string, l, r Value) (Value, error) {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		cmp := Compare(l, r)
		switch op {
		case "=":
			return NewBool(Equal(l, r)), nil
		case "<>":
			return NewBool(!Equal(l, r)), nil
		case "<":
			return NewBool(cmp < 0), nil
		case "<=":
			return NewBool(cmp <= 0), nil
		case ">":
			return NewBool(cmp > 0), nil
		case ">=":
			return NewBool(cmp >= 0), nil
		}
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return evalArith(op, l, r)
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null, nil
		}
		return NewString(l.String() + r.String()), nil
	}
	return Null, fmt.Errorf("engine: unknown binary op %q", op)
}

// evalAggregate reduces one aggregate call over the group. In serial mode
// it collects the call's non-null (optionally DISTINCT-deduped) argument
// values by scanning the group's rows; in parallel mode the morsel workers
// already collected exactly that list — in the same canonical row order —
// into the call's slot, so only the final fold runs here. Both modes feed
// foldAggregate the identical value sequence, which is what makes results
// bit-identical across worker counts.
func (g *groupEnv) evalAggregate(x *sqlparser.FuncCall) (Value, error) {
	if x.Star {
		if x.Name != "COUNT" {
			return Null, fmt.Errorf("engine: %s(*) is not valid", x.Name)
		}
		if g.par != nil {
			return NewInt(g.par.count), nil
		}
		return NewInt(int64(len(g.rows))), nil
	}
	if len(x.Args) != 1 {
		return Null, fmt.Errorf("engine: %s expects one argument", x.Name)
	}
	if g.par != nil {
		slot, ok := g.slotOf[x]
		if !ok {
			return Null, fmt.Errorf("engine: internal: aggregate %s(%s) missing from parallel plan",
				x.Name, sqlparser.PrintExpr(x.Args[0]))
		}
		st := &g.par.slots[slot]
		if st.fold != nil {
			// Streaming fold path: the slot holds incrementally-folded state
			// instead of the value list (aggstream.go).
			return st.fold.result(x.Name)
		}
		return foldAggregate(x.Name, st.vals)
	}
	arg, err := g.compiled(x.Args[0])
	if err != nil {
		return Null, err
	}
	var vals []Value
	var seen map[string]bool
	if x.Distinct {
		seen = make(map[string]bool)
	}
	var scratch []byte
	for i, row := range g.rows {
		// One group can span the whole relation, so the serial argument
		// scan polls at morsel boundaries like the parallel collectors.
		if i%g.ctx.morsel == 0 {
			if err := g.ctx.err(); err != nil {
				return Null, err
			}
		}
		v, err := arg(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			scratch = v.AppendKey(scratch[:0])
			if seen[string(scratch)] {
				continue
			}
			seen[string(scratch)] = true
		}
		vals = append(vals, v)
	}
	return foldAggregate(x.Name, vals)
}

// foldAggregate applies the named aggregate to an ordered list of non-null
// argument values (already DISTINCT-deduped when the call requires it).
// Order matters: float accumulation is non-associative, so callers must
// supply values in canonical row-scan order for reproducible results.
func foldAggregate(name string, vals []Value) (Value, error) {
	switch name {
	case "COUNT":
		return NewInt(int64(len(vals))), nil
	case "SUM":
		if len(vals) == 0 {
			return Null, nil
		}
		allInt := true
		var fsum float64
		var isum int64
		for _, v := range vals {
			if v.Kind != KindInt {
				allInt = false
			}
			fsum += v.AsFloat()
			isum += v.Int
		}
		if allInt {
			return NewInt(isum), nil
		}
		return NewFloat(fsum), nil
	case "AVG":
		if len(vals) == 0 {
			return Null, nil
		}
		var sum float64
		for _, v := range vals {
			sum += v.AsFloat()
		}
		return NewFloat(sum / float64(len(vals))), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c := Compare(v, best)
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	case "MEDIAN":
		if len(vals) == 0 {
			return Null, nil
		}
		fs := make([]float64, len(vals))
		for i, v := range vals {
			fs[i] = v.AsFloat()
		}
		sort.Float64s(fs)
		mid := len(fs) / 2
		if len(fs)%2 == 1 {
			return NewFloat(fs[mid]), nil
		}
		return NewFloat((fs[mid-1] + fs[mid]) / 2), nil
	case "STDDEV":
		if len(vals) < 2 {
			return Null, nil
		}
		var sum float64
		for _, v := range vals {
			sum += v.AsFloat()
		}
		mean := sum / float64(len(vals))
		var ss float64
		for _, v := range vals {
			d := v.AsFloat() - mean
			ss += d * d
		}
		return NewFloat(math.Sqrt(ss / float64(len(vals)-1))), nil
	}
	return Null, fmt.Errorf("engine: unsupported aggregate %s", name)
}

// sortKey computes ORDER BY keys in the aggregate environment.
func (g *groupEnv) sortKey(orderBy []sqlparser.OrderItem, out *ResultSet, outRow []Value) ([]Value, error) {
	key := make([]Value, len(orderBy))
	for i, item := range orderBy {
		if lit, ok := item.Expr.(*sqlparser.IntLit); ok {
			pos := int(lit.Value) - 1
			if pos < 0 || pos >= len(outRow) {
				return nil, fmt.Errorf("engine: ORDER BY position %d out of range", lit.Value)
			}
			key[i] = outRow[pos]
			continue
		}
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
		v, err := g.eval(item.Expr)
		if err != nil {
			return nil, err
		}
		key[i] = v
	}
	return key, nil
}

// exprEqual reports structural equality of two expressions via their printed
// form (sound because printing is deterministic and injective up to parse
// equivalence).
func exprEqual(a, b sqlparser.Expr) bool {
	if a == nil || b == nil {
		return a == b
	}
	return sqlparser.PrintExpr(a) == sqlparser.PrintExpr(b)
}
