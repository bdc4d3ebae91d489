package engine

import (
	"fmt"
	"math"
	"strings"

	"flexdp/internal/sqlparser"
)

// This file implements the row evaluator: instead of re-walking the
// expression AST and re-resolving column names for every row, each
// expression is compiled once per relation into a closure tree. Column
// references bind to integer row indices at compile time, operator dispatch
// happens once, and uncorrelated subqueries are memoized, so per-row
// evaluation is a chain of direct closure calls over the row slice. The
// batch kernels (kernels.go) are the other evaluator; they serve pure
// expressions in vectorized mode with the same semantics.
//
// Evaluation is lazy about errors: a failure that only evaluating a node can
// reveal (unknown columns, unsupported functions) is deferred into the
// returned closure and raised only when that node is reached, so
// short-circuit evaluation, CASE branches, and empty relations never fail on
// a branch they do not evaluate.

// evalFn is a compiled expression evaluator bound to one relation's column
// layout. The row slice must match that layout.
type evalFn func(row []Value) (Value, error)

// compileExpr binds e to rel's column layout and returns its compiled
// evaluator. ctx supplies subquery execution; it may be nil when e contains
// no subqueries. The returned error is reserved for structural failures;
// data-dependent errors are deferred into the evaluator.
//
// When ctx carries a prepared-plan cache, subquery-free expressions are
// compiled once per (expression, column layout) and the closure is reused
// across executions and goroutines. Expressions containing subqueries embed
// per-execution memoized results and are therefore recompiled every time.
func compileExpr(rel *relation, ctx *execContext, e sqlparser.Expr) (evalFn, error) {
	var plans *planCache
	if ctx != nil {
		plans = ctx.plans
	}
	if plans != nil {
		if fn, ok := plans.get(e, rel.layoutSig()); ok {
			return fn, nil
		}
	}
	c := &compiler{rel: rel, ctx: ctx}
	fn := c.compile(e)
	if plans != nil && !c.impure {
		plans.put(e, rel.layoutSig(), fn)
	}
	return fn, nil
}

// exprPure reports whether e contains no subquery at any depth. Pure
// expressions compile to stateless closures — they capture only column
// indices and other compiled closures — so one compiled evaluator can be
// called concurrently from every worker of the morsel-driven executor.
// Impure closures (EXISTS, IN (SELECT ...), scalar subqueries) memoize their
// subquery result in unsynchronized captured variables and therefore force
// the enclosing operator onto the serial path. This is the static form of
// the compiler's impure flag: the flag is only known after compilation,
// while operators must choose serial or parallel execution before compiling.
func exprPure(e sqlparser.Expr) bool {
	pure := true
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		switch n := x.(type) {
		case *sqlparser.SubqueryExpr, *sqlparser.ExistsExpr:
			pure = false
			return false
		case *sqlparser.InExpr:
			if n.Subquery != nil {
				pure = false
				return false
			}
		}
		return pure
	})
	return pure
}

// exprsPure reports whether every expression in the list is pure (nil
// entries are vacuously pure).
func exprsPure(es []sqlparser.Expr) bool {
	for _, e := range es {
		if e != nil && !exprPure(e) {
			return false
		}
	}
	return true
}

type compiler struct {
	rel *relation
	ctx *execContext
	// impure marks the compiled closure as unsafe to cache across
	// executions: it embeds a subquery whose result is memoized per
	// execution context (and whose value depends on the data).
	impure bool
}

func constFn(v Value) evalFn {
	return func([]Value) (Value, error) { return v, nil }
}

// errFn defers a compile-time resolution failure to evaluation time, so an
// error is only reported for a node evaluation reaches.
func errFn(err error) evalFn {
	return func([]Value) (Value, error) { return Null, err }
}

func (c *compiler) compile(e sqlparser.Expr) evalFn {
	switch x := e.(type) {
	case *sqlparser.IntLit:
		return constFn(NewInt(x.Value))
	case *sqlparser.FloatLit:
		return constFn(NewFloat(x.Value))
	case *sqlparser.StringLit:
		return constFn(NewString(x.Value))
	case *sqlparser.BoolLit:
		return constFn(NewBool(x.Value))
	case *sqlparser.NullLit:
		return constFn(Null)
	case *sqlparser.ColumnRef:
		i, err := c.rel.findCol(x.Table, x.Name)
		if err != nil {
			return errFn(err)
		}
		return func(row []Value) (Value, error) { return row[i], nil }
	case *sqlparser.BinaryExpr:
		return c.compileBinary(x)
	case *sqlparser.UnaryExpr:
		return c.compileUnary(x)
	case *sqlparser.FuncCall:
		return c.compileFunc(x)
	case *sqlparser.CaseExpr:
		return c.compileCase(x)
	case *sqlparser.InExpr:
		return c.compileIn(x)
	case *sqlparser.BetweenExpr:
		return c.compileBetween(x)
	case *sqlparser.LikeExpr:
		return c.compileLike(x)
	case *sqlparser.IsNullExpr:
		inner := c.compile(x.Expr)
		not := x.Not
		return func(row []Value) (Value, error) {
			v, err := inner(row)
			if err != nil {
				return Null, err
			}
			res := v.IsNull()
			if not {
				res = !res
			}
			return NewBool(res), nil
		}
	case *sqlparser.ExistsExpr:
		return c.compileExists(x)
	case *sqlparser.SubqueryExpr:
		return c.compileScalarSubquery(x)
	case *sqlparser.CastExpr:
		inner := c.compile(x.Expr)
		typ := x.Type
		return func(row []Value) (Value, error) {
			v, err := inner(row)
			if err != nil {
				return Null, err
			}
			return castValue(v, typ)
		}
	}
	return errFn(fmt.Errorf("engine: unsupported expression %T", e))
}

func (c *compiler) compileBinary(x *sqlparser.BinaryExpr) evalFn {
	l := c.compile(x.Left)
	r := c.compile(x.Right)
	switch x.Op {
	case "AND":
		return func(row []Value) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			if !lv.IsNull() && !lv.Truthy() {
				return NewBool(false), nil
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if !rv.IsNull() && !rv.Truthy() {
				return NewBool(false), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewBool(true), nil
		}
	case "OR":
		return func(row []Value) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			if lv.Truthy() {
				return NewBool(true), nil
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if rv.Truthy() {
				return NewBool(true), nil
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewBool(false), nil
		}
	case "=":
		return compileCmp(l, r, func(lv, rv Value) bool { return Equal(lv, rv) })
	case "<>":
		return compileCmp(l, r, func(lv, rv Value) bool { return !Equal(lv, rv) })
	case "<":
		return compileCmp(l, r, func(lv, rv Value) bool { return Compare(lv, rv) < 0 })
	case "<=":
		return compileCmp(l, r, func(lv, rv Value) bool { return Compare(lv, rv) <= 0 })
	case ">":
		return compileCmp(l, r, func(lv, rv Value) bool { return Compare(lv, rv) > 0 })
	case ">=":
		return compileCmp(l, r, func(lv, rv Value) bool { return Compare(lv, rv) >= 0 })
	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(row []Value) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return evalArith(op, lv, rv)
		}
	case "||":
		return func(row []Value) (Value, error) {
			lv, err := l(row)
			if err != nil {
				return Null, err
			}
			rv, err := r(row)
			if err != nil {
				return Null, err
			}
			if lv.IsNull() || rv.IsNull() {
				return Null, nil
			}
			return NewString(lv.String() + rv.String()), nil
		}
	}
	return errFn(fmt.Errorf("engine: unknown binary op %q", x.Op))
}

// compileCmp wraps a NULL-propagating comparison with the predicate fixed
// at compile time.
func compileCmp(l, r evalFn, pred func(lv, rv Value) bool) evalFn {
	return func(row []Value) (Value, error) {
		lv, err := l(row)
		if err != nil {
			return Null, err
		}
		rv, err := r(row)
		if err != nil {
			return Null, err
		}
		if lv.IsNull() || rv.IsNull() {
			return Null, nil
		}
		return NewBool(pred(lv, rv)), nil
	}
}

func (c *compiler) compileUnary(x *sqlparser.UnaryExpr) evalFn {
	inner := c.compile(x.Expr)
	switch x.Op {
	case "NOT":
		return func(row []Value) (Value, error) {
			v, err := inner(row)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			return NewBool(!v.Truthy()), nil
		}
	case "-":
		return func(row []Value) (Value, error) {
			v, err := inner(row)
			if err != nil {
				return Null, err
			}
			switch v.Kind {
			case KindInt:
				return NewInt(-v.Int), nil
			case KindFloat:
				return NewFloat(-v.Float), nil
			case KindNull:
				return Null, nil
			}
			return Null, fmt.Errorf("engine: cannot negate %s", v.Kind)
		}
	}
	return errFn(fmt.Errorf("engine: unknown unary op %q", x.Op))
}

func (c *compiler) compileFunc(x *sqlparser.FuncCall) evalFn {
	if sqlparser.IsAggregateFunc(x.Name) {
		return errFn(fmt.Errorf("engine: aggregate %s used outside aggregation context", x.Name))
	}
	switch x.Name {
	case "COALESCE":
		args := make([]evalFn, len(x.Args))
		for i, a := range x.Args {
			args[i] = c.compile(a)
		}
		return func(row []Value) (Value, error) {
			for _, fn := range args {
				v, err := fn(row)
				if err != nil {
					return Null, err
				}
				if !v.IsNull() {
					return v, nil
				}
			}
			return Null, nil
		}
	case "LOWER", "UPPER", "LENGTH", "ABS", "ROUND", "FLOOR", "CEIL":
		if len(x.Args) < 1 {
			return errFn(fmt.Errorf("engine: %s requires an argument", x.Name))
		}
		arg := c.compile(x.Args[0])
		var apply func(Value) Value
		switch x.Name {
		case "LOWER":
			apply = func(v Value) Value { return NewString(strings.ToLower(v.String())) }
		case "UPPER":
			apply = func(v Value) Value { return NewString(strings.ToUpper(v.String())) }
		case "LENGTH":
			apply = func(v Value) Value { return NewInt(int64(len(v.String()))) }
		case "ABS":
			apply = func(v Value) Value {
				if v.Kind == KindInt {
					if v.Int < 0 {
						return NewInt(-v.Int)
					}
					return v
				}
				return NewFloat(math.Abs(v.AsFloat()))
			}
		case "ROUND":
			apply = func(v Value) Value { return NewFloat(math.Round(v.AsFloat())) }
		case "FLOOR":
			apply = func(v Value) Value { return NewFloat(math.Floor(v.AsFloat())) }
		case "CEIL":
			apply = func(v Value) Value { return NewFloat(math.Ceil(v.AsFloat())) }
		}
		return func(row []Value) (Value, error) {
			v, err := arg(row)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			return apply(v), nil
		}
	case "INTERVAL":
		if len(x.Args) == 2 {
			a0 := c.compile(x.Args[0])
			a1 := c.compile(x.Args[1])
			return func(row []Value) (Value, error) {
				v, _ := a0(row)
				u, _ := a1(row)
				return NewString(v.String() + " " + u.String()), nil
			}
		}
	}
	return errFn(fmt.Errorf("engine: unsupported function %s", x.Name))
}

func (c *compiler) compileCase(x *sqlparser.CaseExpr) evalFn {
	var operand evalFn
	if x.Operand != nil {
		operand = c.compile(x.Operand)
	}
	conds := make([]evalFn, len(x.Whens))
	results := make([]evalFn, len(x.Whens))
	for i, w := range x.Whens {
		conds[i] = c.compile(w.Cond)
		results[i] = c.compile(w.Result)
	}
	var elseFn evalFn
	if x.Else != nil {
		elseFn = c.compile(x.Else)
	}
	return func(row []Value) (Value, error) {
		var op Value
		if operand != nil {
			v, err := operand(row)
			if err != nil {
				return Null, err
			}
			op = v
		}
		for i, cond := range conds {
			cv, err := cond(row)
			if err != nil {
				return Null, err
			}
			matched := false
			if operand != nil {
				matched = Equal(op, cv)
			} else {
				matched = cv.Truthy()
			}
			if matched {
				return results[i](row)
			}
		}
		if elseFn != nil {
			return elseFn(row)
		}
		return Null, nil
	}
}

func (c *compiler) compileIn(x *sqlparser.InExpr) evalFn {
	expr := c.compile(x.Expr)
	not := x.Not

	// Scan applies 3VL: NULL candidates defer the decision, a match
	// short-circuits.
	scan := func(v Value, candidates []Value) Value {
		sawNull := false
		for _, cand := range candidates {
			if cand.IsNull() {
				sawNull = true
				continue
			}
			if Equal(v, cand) {
				return NewBool(!not)
			}
		}
		if sawNull {
			return Null
		}
		return NewBool(not)
	}

	if x.Subquery != nil {
		// Uncorrelated subquery: execute once on first evaluation and
		// memoize both the candidate list and any error.
		c.impure = true
		sub := x.Subquery
		ctx := c.ctx
		var candidates []Value
		var subErr error
		done := false
		return func(row []Value) (Value, error) {
			v, err := expr(row)
			if err != nil {
				return Null, err
			}
			if v.IsNull() {
				return Null, nil
			}
			if !done {
				done = true
				if ctx == nil {
					subErr = fmt.Errorf("engine: IN subquery outside execution context")
				} else if rs, err := ctx.executeSelect(sub); err != nil {
					subErr = err
				} else if len(rs.Columns) != 1 {
					subErr = fmt.Errorf("engine: IN subquery must return one column, got %d",
						len(rs.Columns))
				} else {
					for i, r := range rs.Rows {
						if i%ctx.morsel == 0 && ctx.err() != nil {
							subErr = ctx.err()
							break
						}
						candidates = append(candidates, r[0])
					}
				}
			}
			if subErr != nil {
				return Null, subErr
			}
			return scan(v, candidates), nil
		}
	}

	items := make([]evalFn, len(x.List))
	for i, item := range x.List {
		items[i] = c.compile(item)
	}
	return func(row []Value) (Value, error) {
		v, err := expr(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() {
			return Null, nil
		}
		// Every candidate is evaluated before scanning, so an error in any
		// list item surfaces even after a match.
		candidates := make([]Value, len(items))
		for i, fn := range items {
			cv, err := fn(row)
			if err != nil {
				return Null, err
			}
			candidates[i] = cv
		}
		return scan(v, candidates), nil
	}
}

func (c *compiler) compileBetween(x *sqlparser.BetweenExpr) evalFn {
	expr := c.compile(x.Expr)
	lo := c.compile(x.Low)
	hi := c.compile(x.High)
	not := x.Not
	return func(row []Value) (Value, error) {
		v, err := expr(row)
		if err != nil {
			return Null, err
		}
		lv, err := lo(row)
		if err != nil {
			return Null, err
		}
		hv, err := hi(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || lv.IsNull() || hv.IsNull() {
			return Null, nil
		}
		in := Compare(v, lv) >= 0 && Compare(v, hv) <= 0
		if not {
			in = !in
		}
		return NewBool(in), nil
	}
}

func (c *compiler) compileLike(x *sqlparser.LikeExpr) evalFn {
	expr := c.compile(x.Expr)
	pat := c.compile(x.Pattern)
	not := x.Not
	return func(row []Value) (Value, error) {
		v, err := expr(row)
		if err != nil {
			return Null, err
		}
		pv, err := pat(row)
		if err != nil {
			return Null, err
		}
		if v.IsNull() || pv.IsNull() {
			return Null, nil
		}
		m := likeMatch(v.String(), pv.String())
		if not {
			m = !m
		}
		return NewBool(m), nil
	}
}

func (c *compiler) compileExists(x *sqlparser.ExistsExpr) evalFn {
	c.impure = true
	if c.ctx == nil {
		return errFn(fmt.Errorf("engine: EXISTS subquery outside execution context"))
	}
	ctx := c.ctx
	sub := x.Query
	not := x.Not
	var cached Value
	var cachedErr error
	done := false
	return func([]Value) (Value, error) {
		if !done {
			done = true
			rs, err := ctx.executeSelect(sub)
			if err != nil {
				cachedErr = err
			} else {
				res := len(rs.Rows) > 0
				if not {
					res = !res
				}
				cached = NewBool(res)
			}
		}
		return cached, cachedErr
	}
}

func (c *compiler) compileScalarSubquery(x *sqlparser.SubqueryExpr) evalFn {
	c.impure = true
	if c.ctx == nil {
		return errFn(fmt.Errorf("engine: scalar subquery outside execution context"))
	}
	ctx := c.ctx
	sub := x.Query
	var cached Value
	var cachedErr error
	done := false
	return func([]Value) (Value, error) {
		if !done {
			done = true
			rs, err := ctx.executeSelect(sub)
			switch {
			case err != nil:
				cachedErr = err
			case len(rs.Rows) == 0:
				cached = Null
			default:
				cached, cachedErr = rs.Scalar()
			}
		}
		return cached, cachedErr
	}
}
