package engine

import (
	"slices"
	"strings"

	"flexdp/internal/sqlparser"
)

// Plan rewrites (DESIGN.md, "Plan rewrites"): one pure planning function per
// SELECT body decides, from the FROM tree, the WHERE/ON conjuncts and the leaf
// schemas alone, which conjuncts run below which join and which columns each
// join still has to emit. The executor consumes the result; the empty plan
// (nil) runs every WHERE above the joins and keeps every column.

// selectPlan is the rewrite of one SELECT body. A nil *selectPlan is the
// empty plan: the WHERE runs above the joins, every join emits every column
// and no comma join is linked.
type selectPlan struct {
	// from is the body's FROM folded into one join tree (foldFrom); joins is
	// keyed by its nodes, so the executor must run this tree, not a re-fold.
	from  sqlparser.TableExpr
	where sqlparser.Expr // conjunction left above the joins; nil when all were pushed
	joins map[*sqlparser.JoinExpr]joinPlan
}

// joinPlan is the plan's verdict for one join.
type joinPlan struct {
	pushLeft, pushRight sqlparser.Expr   // filter to run on that input below the join; nil for none
	onPushed            []sqlparser.Expr // ON conjuncts moved into a push filter, dropped from the residuals
	link                sqlparser.Expr   // the WHERE equality a CROSS join is keyed on; nil for none
	keep                []int            // combined-layout positions the join emits; nil for all
}

func (sp *selectPlan) join(t *sqlparser.JoinExpr) joinPlan {
	if sp == nil {
		return joinPlan{}
	}
	return sp.joins[t]
}

// hasJoin reports whether a SELECT body's FROM joins anything: several
// comma-separated items or one join tree.
func hasJoin(stmt *sqlparser.SelectStmt) bool {
	if len(stmt.From) != 1 {
		return len(stmt.From) > 1
	}
	_, ok := stmt.From[0].(*sqlparser.JoinExpr)
	return ok
}

// foldFrom folds a FROM list into one table expression, the comma-separated
// items into a left-deep chain of CROSS joins; nil for an empty FROM.
func foldFrom(items []sqlparser.TableExpr) sqlparser.TableExpr {
	if len(items) == 0 {
		return nil
	}
	te := items[0]
	for _, item := range items[1:] {
		te = &sqlparser.JoinExpr{Kind: sqlparser.JoinCross, Left: te, Right: item}
	}
	return te
}

// isLink reports whether c is an equality of two columns, one on each side of
// a join whose right input starts at column mid: relalg's linkCommaJoin rule.
func isLink(c conjunct, mid int) bool {
	b, ok := c.expr.(*sqlparser.BinaryExpr)
	if !ok || b.Op != "=" || len(c.refs) != 2 {
		return false
	}
	_, lok := b.Left.(*sqlparser.ColumnRef)
	_, rok := b.Right.(*sqlparser.ColumnRef)
	return lok && rok && refSide(c.refs, mid) == 0
}

// conjunct is one AND-operand with the global column ids it references.
type conjunct struct {
	expr sqlparser.Expr
	refs []int
}

// refSide reports which input of a join whose right input starts at column
// mid the refs all fall in: -1 left, +1 right, 0 both or (a constant) neither.
func refSide(refs []int, mid int) (side int) {
	for i, g := range refs {
		s := -1
		if g >= mid {
			s = 1
		}
		if i > 0 && s != side {
			return 0
		}
		side = s
	}
	return side
}

// conjuncts flattens nested ANDs into their operands, left to right.
func conjuncts(e sqlparser.Expr, dst []sqlparser.Expr) []sqlparser.Expr {
	if b, ok := e.(*sqlparser.BinaryExpr); ok && b.Op == "AND" {
		return conjuncts(b.Right, conjuncts(b.Left, dst))
	}
	return append(dst, e)
}

// andAll rebuilds a conjunction over the original conjunct nodes, so compiled
// closures stay keyed by the statement's own AST pointers.
func andAll(cs []conjunct) sqlparser.Expr {
	var out sqlparser.Expr
	for _, c := range cs {
		if out == nil {
			out = c.expr
		} else {
			out = &sqlparser.BinaryExpr{Op: "AND", Left: out, Right: c.expr}
		}
	}
	return out
}

// exprRefs appends the columns e references, resolved against rel. ok is
// false when a reference does not resolve uniquely or e holds a subquery —
// and, with total set, when e could fail at run time: only column refs,
// literals, comparisons, AND/OR/NOT, IS NULL, BETWEEN, LIKE and IN-lists can
// never raise an error in compile.go or kernels.go.
func exprRefs(e sqlparser.Expr, rel *relation, total bool, refs []int) (_ []int, ok bool) {
	ok = true
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		switch n := x.(type) {
		case *sqlparser.ColumnRef:
			i, err := rel.findCol(n.Table, n.Name)
			if err != nil {
				ok = false
			}
			refs = append(refs, i)
		case *sqlparser.SubqueryExpr, *sqlparser.ExistsExpr:
			ok = false
		case *sqlparser.InExpr:
			ok = ok && n.Subquery == nil
		case *sqlparser.BinaryExpr:
			switch n.Op {
			case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
			default:
				ok = ok && !total
			}
		case *sqlparser.UnaryExpr:
			ok = ok && (!total || n.Op == "NOT")
		case *sqlparser.IntLit, *sqlparser.FloatLit, *sqlparser.StringLit, *sqlparser.BoolLit,
			*sqlparser.NullLit, *sqlparser.BetweenExpr, *sqlparser.LikeExpr, *sqlparser.IsNullExpr:
		default:
			ok = ok && !total
		}
		return ok
	})
	return refs, ok
}

// planSelect plans one SELECT body whose FROM, comma items folded into CROSS
// joins, is a single left-deep join chain over named tables; schema returns a
// leaf's columns. It returns nil — the empty plan — for every other shape,
// and whenever some WHERE/ON conjunct is not total or some reference in them
// does not resolve uniquely, so a pushed predicate can neither introduce nor
// mask a run-time error.
//
// Legality (CROSS counts as INNER): a WHERE conjunct (or one arriving from a
// join above) that references only the left input moves below an INNER or
// LEFT join, one that references only the right input below an INNER or
// RIGHT join; a single-side ON conjunct moves below an INNER join only;
// nothing crosses FULL. At a CROSS join the first arriving conjunct that
// equates a column of each input becomes the join's link, its hash key — the
// equality relalg's linkCommaJoin keys the same join on.
func planSelect(stmt *sqlparser.SelectStmt, schema func(*sqlparser.TableName) ([]relCol, bool)) *selectPlan {
	from := foldFrom(stmt.From)
	top, _ := from.(*sqlparser.JoinExpr)
	if top == nil {
		return nil
	}
	var chain []*sqlparser.JoinExpr // join i of the chain, bottom join first
	for j := top; j != nil; j, _ = j.Left.(*sqlparser.JoinExpr) {
		chain = append([]*sqlparser.JoinExpr{j}, chain...)
	}
	n := len(chain)
	// Global column ids: leaf 0's columns, then each join's right leaf's, so
	// join i's left input is [0, ends[i]) and its right input [ends[i], ends[i+1]).
	var cols []relCol
	ends := make([]int, 0, n+1)
	for i := -1; i < n; i++ {
		leaf := chain[0].Left
		if i >= 0 {
			leaf = chain[i].Right
		}
		name, ok := leaf.(*sqlparser.TableName)
		if !ok {
			return nil
		}
		c, ok := schema(name)
		if !ok {
			return nil
		}
		cols = append(cols, c...)
		ends = append(ends, len(cols))
	}
	full := &relation{cols: cols}

	// level[g] is the highest join whose output must still carry column g
	// (-1: none). The statement-level clauses read the top join's output.
	level := make([]int, len(cols))
	for g := range level {
		level[g] = -1
	}
	raise := func(refs []int, at int) {
		for _, g := range refs {
			if g >= 0 && level[g] < at {
				level[g] = at
			}
		}
	}
	keepAll := false
	need := func(e sqlparser.Expr) {
		refs, ok := exprRefs(e, full, false, nil)
		keepAll = keepAll || !ok
		raise(refs, n-1)
	}
	var outNames []string
	for i, item := range stmt.Columns {
		if item.Star || item.TableStar != "" {
			keepAll = true
			continue
		}
		outNames = append(outNames, outputName(item, i))
		need(item.Expr)
	}
	for _, e := range stmt.GroupBy {
		need(e)
	}
	if stmt.Having != nil {
		need(stmt.Having)
	}
orderBy:
	for _, item := range stmt.OrderBy {
		// An unqualified name equal to an output column sorts on the output.
		if ref, ok := item.Expr.(*sqlparser.ColumnRef); ok && ref.Table == "" {
			for _, name := range outNames {
				if strings.EqualFold(name, ref.Name) {
					continue orderBy
				}
			}
		}
		need(item.Expr)
	}

	total := func(es []sqlparser.Expr, rel *relation) ([]conjunct, bool) {
		cs := make([]conjunct, len(es))
		for i, e := range es {
			refs, ok := exprRefs(e, rel, true, nil)
			if !ok {
				return nil, false
			}
			cs[i] = conjunct{expr: e, refs: refs}
		}
		return cs, true
	}
	var incoming []conjunct
	ok := true
	if stmt.Where != nil {
		if incoming, ok = total(conjuncts(stmt.Where, nil), full); !ok {
			return nil
		}
	}

	sp := &selectPlan{from: from, joins: make(map[*sqlparser.JoinExpr]joinPlan, n)}
	plans := make([]joinPlan, n)
	for i := n - 1; i >= 0; i-- {
		j, mid, hi := chain[i], ends[i], ends[i+1]
		left, right := &relation{cols: cols[:mid]}, &relation{cols: cols[mid:hi]}
		var on []conjunct
		residual := map[sqlparser.Expr]bool{}
		jp := &plans[i]
		switch {
		case len(j.Using) > 0:
			for _, name := range j.Using {
				li, lerr := left.findCol("", name)
				if _, rerr := right.findCol("", name); lerr != nil || rerr != nil {
					return nil
				}
				raise([]int{li}, i-1)
			}
		case j.On != nil:
			if on, ok = total(conjuncts(j.On, nil), &relation{cols: cols[:hi]}); !ok {
				return nil
			}
			_, res := splitJoinCondition(j.On, left, right)
			for _, e := range res {
				residual[e] = true
			}
		case j.Kind == sqlparser.JoinCross:
			if k := slices.IndexFunc(incoming, func(c conjunct) bool { return isLink(c, mid) }); k >= 0 {
				jp.link = incoming[k].expr
				raise(incoming[k].refs, i-1) // a key: read from the inputs
				incoming = slices.Delete(incoming, k, k+1)
			}
		}
		var toLeft, toRight, stay []conjunct
		// place routes one conjunct; the join drops pushed ON conjuncts from
		// its residuals.
		place := func(c conjunct, fromOn bool) bool {
			side := refSide(c.refs, mid)
			inner := j.Kind == sqlparser.JoinInner || j.Kind == sqlparser.JoinCross
			switch {
			case side < 0 && (inner || (!fromOn && j.Kind == sqlparser.JoinLeft)):
				toLeft = append(toLeft, c)
			case side > 0 && (inner || (!fromOn && j.Kind == sqlparser.JoinRight)):
				toRight = append(toRight, c)
			default:
				return false
			}
			return true
		}
		for _, c := range incoming {
			if !place(c, false) {
				stay = append(stay, c)
				raise(c.refs, i) // it filters this join's output
			}
		}
		for _, c := range on {
			switch {
			case place(c, true):
				jp.onPushed = append(jp.onPushed, c.expr)
			case residual[c.expr]:
				raise(c.refs, i) // evaluated on this join's output row
			default:
				raise(c.refs, i-1) // a key: read from the left input
			}
		}
		if i == n-1 {
			sp.where = andAll(stay)
		} else {
			plans[i+1].pushLeft = andAll(stay)
		}
		jp.pushRight = andAll(toRight)
		if i == 0 {
			jp.pushLeft = andAll(toLeft)
		}
		incoming = toLeft
	}

	// Bottom-up: turn levels into positions in each join's actual (already
	// pruned) combined layout.
	layout := make([]int, ends[0])
	for g := range layout {
		layout[g] = g
	}
	for i := 0; i < n; i++ {
		for g := ends[i]; g < ends[i+1]; g++ {
			layout = append(layout, g)
		}
		if !keepAll {
			keep, kept := []int{}, []int(nil) // keep stays non-nil: nil would mean "all"
			for p, g := range layout {
				if level[g] >= i {
					keep, kept = append(keep, p), append(kept, g)
				}
			}
			if len(keep) < len(layout) {
				plans[i].keep, layout = keep, kept
			}
		}
		sp.joins[chain[i]] = plans[i]
	}
	return sp
}
