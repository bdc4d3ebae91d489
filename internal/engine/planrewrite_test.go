package engine

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"flexdp/internal/relalg"
	"flexdp/internal/sqlparser"
)

// Tests for the plan rewrites (planrewrite.go): the executor under a plan
// must be indistinguishable from the same executor under the empty plan —
// same rows, same order, same error text — and the mechanism
// (filters below joins, narrowed join output, memoisation, an untouched AST)
// must be observable through the engine's own profile.

// rewriteTestDB is parallelTestDB (t, u with NULL join keys) plus a third
// table for join chains.
func rewriteTestDB(rng *rand.Rand, n int) *DB {
	db := parallelTestDB(rng, n)
	db.MustCreateTable("x", []Column{
		{Name: "w", Type: KindInt},
		{Name: "tag", Type: KindString},
	})
	rows := make([][]Value, 0, 30)
	for i := 0; i < 30; i++ {
		w := Value(NewInt(int64(rng.Intn(60))))
		if i%9 == 0 {
			w = Null
		}
		rows = append(rows, []Value{w, NewString(fmt.Sprintf("tag%d", rng.Intn(4)))})
	}
	if err := db.InsertRows("x", rows); err != nil {
		panic(err)
	}
	return db
}

// rewriteCorpus spans join kind × conjunct source × side, three-way chains,
// stars, ORDER BY on a non-projected column, ambiguous and unknown references,
// and non-total conjuncts placed before and after total ones.
func rewriteCorpus() []string {
	var qs []string
	sides := map[string]string{
		"left":  "t.v > 30",
		"right": "u.w < 40",
		"both":  "t.v > 30 AND u.w < 40 AND t.v <> u.w",
	}
	for _, kind := range []string{"JOIN", "LEFT JOIN", "RIGHT JOIN", "FULL JOIN"} {
		for _, side := range []string{"left", "right", "both"} {
			c := sides[side]
			qs = append(qs,
				fmt.Sprintf("SELECT t.v, u.name FROM t %s u ON t.k = u.k WHERE %s", kind, c),
				fmt.Sprintf("SELECT t.v, u.name FROM t %s u ON t.k = u.k AND %s", kind, c),
				fmt.Sprintf("SELECT COUNT(*), SUM(t.f) FROM t %s u ON t.k = u.k AND %s WHERE %s", kind, c, c),
				fmt.Sprintf("SELECT t.s, COUNT(*), AVG(t.f) FROM t %s u ON t.k = u.k WHERE %s GROUP BY t.s", kind, c),
			)
		}
		qs = append(qs,
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE u.w IS NULL", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE t.v IS NOT NULL AND u.name LIKE 'name%%'", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE t.s IN ('a', 'b') OR u.w BETWEEN 10 AND 20", kind),
			fmt.Sprintf("SELECT * FROM t %s u ON t.k = u.k WHERE t.v > 50", kind),
			fmt.Sprintf("SELECT u.* FROM t %s u ON t.k = u.k WHERE u.w < 30", kind),
			fmt.Sprintf("SELECT t.s FROM t %s u ON t.k = u.k WHERE t.v > 20 ORDER BY u.w, t.v, t.s", kind),
			fmt.Sprintf("SELECT t.v FROM t %s u USING (k) WHERE t.v > 40 AND u.w < 50", kind),
			// Three-way chains: conjuncts for every level, every kind on top.
			fmt.Sprintf("SELECT COUNT(*) FROM t JOIN u ON t.k = u.k %s x ON u.w = x.w WHERE t.v > 30 AND u.w < 40 AND x.tag = 'tag1'", kind),
			fmt.Sprintf("SELECT x.tag, COUNT(*), SUM(t.v) FROM t %s u ON t.k = u.k JOIN x ON u.w = x.w AND x.tag <> 'tag0' WHERE t.v > 10 AND u.w > 5 GROUP BY x.tag", kind),
			fmt.Sprintf("SELECT t.v, x.tag FROM t LEFT JOIN u ON t.k = u.k %s x ON u.w = x.w WHERE t.s = 'a' ORDER BY u.name, 1, 2", kind),
			// Ambiguous and unknown references, in the WHERE and above it.
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE k > 2 AND t.v > 10", kind),
			fmt.Sprintf("SELECT k FROM t %s u ON t.k = u.k WHERE t.v > 10", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE t.v > 10 AND u.nope = 1", kind),
			fmt.Sprintf("SELECT t.nope FROM t %s u ON t.k = u.k WHERE t.v > 10", kind),
			// Non-total conjuncts before and after a total one.
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE t.s + 1 > 0 AND u.w < 40", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE u.w < 40 AND t.s + 1 > 0", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE CAST(u.name AS INT) > 0 AND t.v > 30", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE t.v > 30 AND CAST(u.name AS INT) > 0", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k AND t.v / 0 > 1 WHERE u.w < 40", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE t.v > (SELECT AVG(v) FROM t) AND u.w < 40", kind),
			fmt.Sprintf("SELECT COUNT(*) FROM t %s u ON t.k = u.k WHERE u.w < 40 AND t.v > (SELECT MIN(w) FROM x)", kind),
		)
	}
	return append(qs,
		"SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE 1 = 0",
		"SELECT 1, COUNT(*) FROM t JOIN u ON t.k = u.k WHERE t.v > 90",
		"SELECT t.v FROM t JOIN u ON t.v > u.w AND t.k > 3 WHERE u.w < 10 AND t.s = 'b'",
		"SELECT COUNT(*) FROM t CROSS JOIN x WHERE t.v > 95 AND x.tag = 'tag2'",
		"WITH hot AS (SELECT k, w FROM u WHERE w > 20) SELECT COUNT(*), MIN(hot.w) FROM t JOIN hot ON t.k = hot.k WHERE t.v < 50 AND hot.w < 55",
		"SELECT DISTINCT u.name FROM t JOIN u ON t.k = u.k WHERE t.f > 50.0",
		"SELECT t.s, COUNT(DISTINCT u.w) FROM t JOIN u ON t.k = u.k WHERE u.w > 10 GROUP BY t.s HAVING COUNT(*) > 1 ORDER BY t.s",
		// Comma and CROSS joins: linked, linked out of WHERE order, partly
		// linked, unlinked, non-total, ambiguous; key-less ON joins.
		"SELECT t.v, u.name FROM t, u WHERE t.k = u.k AND t.v > 30",
		"SELECT COUNT(*), SUM(x.w) FROM t, u, x WHERE u.w = x.w AND t.k = u.k AND x.tag <> 'tag0'",
		"SELECT t.v, x.tag FROM t, u, x WHERE t.k = u.k AND t.v > 80 ORDER BY x.tag, t.v, u.w",
		"SELECT COUNT(*), MAX(u.w) FROM t, u WHERE t.v < u.w AND u.w < 10",
		"SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v + u.w > 50",
		"SELECT COUNT(*) FROM t, u WHERE k = 1 AND t.v > 10",
		"SELECT * FROM t, u WHERE u.k = t.k AND u.w < 5",
		"SELECT t.v, u.w FROM t CROSS JOIN u WHERE t.v > 90 AND u.w < 5 ORDER BY 1, 2",
		"SELECT COUNT(*) FROM t CROSS JOIN u WHERE t.k = u.k AND t.v > 50",
		"SELECT t.v, u.w FROM t JOIN u ON t.v > u.w AND u.w > 50 AND t.v < 60",
		"SELECT COUNT(*) FROM t LEFT JOIN u ON t.v < u.w AND u.w > 50 WHERE t.v > 20",
	)
}

// selectBodies calls fn on every SELECT body in stmt's tree: the statement,
// its CTEs and set-operation arms, and every derived table and expression
// subquery at any depth.
func selectBodies(stmt *sqlparser.SelectStmt, fn func(*sqlparser.SelectStmt)) {
	if stmt == nil {
		return
	}
	fn(stmt)
	for _, cte := range stmt.With {
		selectBodies(cte.Query, fn)
	}
	if stmt.SetOp != nil {
		selectBodies(stmt.SetOp.Right, fn)
	}
	expr := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			switch n := x.(type) {
			case *sqlparser.SubqueryExpr:
				selectBodies(n.Query, fn)
			case *sqlparser.ExistsExpr:
				selectBodies(n.Query, fn)
			case *sqlparser.InExpr:
				selectBodies(n.Subquery, fn)
			}
			return true
		})
	}
	var table func(sqlparser.TableExpr)
	table = func(te sqlparser.TableExpr) {
		switch x := te.(type) {
		case *sqlparser.SubqueryTable:
			selectBodies(x.Query, fn)
		case *sqlparser.JoinExpr:
			table(x.Left)
			table(x.Right)
			expr(x.On)
		}
	}
	for _, te := range stmt.From {
		table(te)
	}
	for _, item := range stmt.Columns {
		expr(item.Expr)
	}
	for _, e := range append([]sqlparser.Expr{stmt.Where, stmt.Having, stmt.Limit, stmt.Offset}, stmt.GroupBy...) {
		expr(e)
	}
	for _, item := range stmt.OrderBy {
		expr(item.Expr)
	}
}

// TestRewriteMatchesNaive is the optimised-vs-naive differential: every corpus
// query as planned against the same query with the empty plan written into
// its plan cache for every SELECT body, across workers × morsel size × memory
// budget, asserting identical rows, row order and error text.
func TestRewriteMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	db := rewriteTestDB(rng, 70)
	db.SetTempDir(t.TempDir())
	base := db.ExecConfig()
	rewritten := 0
	for _, sql := range rewriteCorpus() {
		naive, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		plans := naive.plansFor(db.Version())
		selectBodies(naive.stmt, func(s *sqlparser.SelectStmt) { plans.sp[s] = emptyPlan(s) })
		ref := base
		ref.Parallelism = 1
		want, wantErr := naive.ExecContextConfig(t.Context(), ref)
		for _, workers := range []int{1, 4} {
			for _, morsel := range []int{2, 0} {
				for _, budget := range []int64{0, 64 << 10, 512} {
					cfg := base
					cfg.Parallelism = workers
					cfg.MorselSize = morsel
					cfg.MemoryBudget = budget
					db.SetExecConfig(cfg)
					got, err := db.Query(sql)
					label := fmt.Sprintf("workers=%d morsel=%d budget=%d %s", workers, morsel, budget, sql)
					if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
						t.Fatalf("%s: error %v, naive plan: %v", label, err, wantErr)
					}
					if err != nil {
						continue
					}
					if diff := resultsEqualExact(want, got); diff != "" {
						t.Fatalf("%s: %s", label, diff)
					}
				}
			}
		}
		if (&execContext{db: db}).planFor(naive.stmt) != nil {
			rewritten++
		}
	}
	// The corpus must exercise both sides of the totality rule.
	if rewritten < 40 || rewritten > len(rewriteCorpus())-20 {
		t.Errorf("%d of %d corpus queries were rewritten; want a healthy share of each", rewritten, len(rewriteCorpus()))
	}
}

// TestPlanSelectLegality pins the legality table on a three-way chain.
func TestPlanSelectLegality(t *testing.T) {
	db := rewriteTestDB(rand.New(rand.NewSource(1)), 20)
	ctx := &execContext{db: db}
	plan := func(sql string) (*sqlparser.SelectStmt, *selectPlan) {
		t.Helper()
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt, ctx.planFor(stmt)
	}
	show := func(e sqlparser.Expr) string {
		if e == nil {
			return ""
		}
		return sqlparser.PrintExpr(e)
	}
	cases := []struct {
		kind                   string
		where, pushL, pushR    string // of the top join
		lowerPushL, lowerPushR string // of the bottom join
	}{
		// t.v > 1 reaches t through both joins; x.tag stops at x.
		{"JOIN", "", "u.w < 9", "x.tag = 'a'", "t.v > 1", ""},
		{"LEFT JOIN", "x.tag = 'a'", "u.w < 9", "", "t.v > 1", ""},
		{"RIGHT JOIN", "t.v > 1 AND u.w < 9", "", "x.tag = 'a'", "", ""},
		{"FULL JOIN", "t.v > 1 AND u.w < 9 AND x.tag = 'a'", "", "", "", ""},
	}
	for _, c := range cases {
		stmt, sp := plan(fmt.Sprintf(
			"SELECT COUNT(*) FROM t LEFT JOIN u ON t.k = u.k %s x ON u.w = x.w WHERE t.v > 1 AND u.w < 9 AND x.tag = 'a'", c.kind))
		if sp == nil {
			t.Fatalf("%s: no plan", c.kind)
		}
		top := stmt.From[0].(*sqlparser.JoinExpr)
		tp, lp := sp.join(top), sp.join(top.Left.(*sqlparser.JoinExpr))
		got := []string{show(sp.where), show(tp.pushLeft), show(tp.pushRight), show(lp.pushLeft), show(lp.pushRight)}
		want := []string{c.where, c.pushL, c.pushR, c.lowerPushL, c.lowerPushR}
		for i := range want {
			if strings.NewReplacer("(", "", ")", "").Replace(got[i]) != want[i] {
				t.Errorf("%s: slot %d = %q, want %q (all: %q)", c.kind, i, got[i], want[i], got)
			}
		}
	}

	// Single-side ON conjuncts move below INNER only, and leave the residuals.
	stmt, sp := plan("SELECT COUNT(*) FROM t JOIN u ON t.k = u.k AND u.w < 9 AND t.v > 1")
	jp := sp.join(stmt.From[0].(*sqlparser.JoinExpr))
	if show(jp.pushLeft) != "(t.v > 1)" || show(jp.pushRight) != "(u.w < 9)" || len(jp.onPushed) != 2 {
		t.Errorf("inner ON: pushLeft=%q pushRight=%q onPushed=%d", show(jp.pushLeft), show(jp.pushRight), len(jp.onPushed))
	}
	stmt, sp = plan("SELECT COUNT(*) FROM t LEFT JOIN u ON t.k = u.k AND u.w < 9 AND t.v > 1")
	jp = sp.join(stmt.From[0].(*sqlparser.JoinExpr))
	if jp.pushLeft != nil || jp.pushRight != nil || jp.onPushed != nil {
		t.Errorf("left-join ON conjuncts moved: %+v", jp)
	}
	// COUNT(*) reads nothing above the join; only the residuals' columns survive.
	if jp.keep == nil || len(jp.keep) != 2 { // u.w and t.v
		t.Errorf("left join keep = %v, want the two residual columns", jp.keep)
	}
	// A comma join folds into a CROSS join keyed on the WHERE equality that
	// links its inputs; single-side conjuncts move below it as below INNER.
	stmt, sp = plan("SELECT COUNT(*) FROM t, u WHERE t.v > 1 AND t.k = u.k AND u.w < 9")
	if sp == nil {
		t.Fatal("comma join: no plan")
	}
	cross := sp.from.(*sqlparser.JoinExpr)
	jp = sp.join(cross)
	if cross.Kind != sqlparser.JoinCross || cross.Left != stmt.From[0] || cross.Right != stmt.From[1] {
		t.Errorf("comma join folded into %+v", cross)
	}
	if show(jp.link) != "(t.k = u.k)" || show(jp.pushLeft) != "(t.v > 1)" || show(jp.pushRight) != "(u.w < 9)" || sp.where != nil {
		t.Errorf("comma join: link=%q pushLeft=%q pushRight=%q where=%q",
			show(jp.link), show(jp.pushLeft), show(jp.pushRight), show(sp.where))
	}
	// Shapes the planner leaves alone.
	for _, sql := range []string{
		"SELECT COUNT(*) FROM t WHERE v > 1",
		"SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v + 1 > 1",
		"SELECT COUNT(*) FROM t, (SELECT k FROM u) d WHERE t.k = d.k",
		"SELECT COUNT(*) FROM t JOIN (SELECT k FROM u) d ON t.k = d.k WHERE t.v > 1",
		"SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE t.v + 1 > 1",
		"SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE -t.v < 1",
		"SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE LOWER(t.s) = 'a'",
		"SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE k = 1",
		"SELECT COUNT(*) FROM t JOIN nope ON t.k = nope.k WHERE t.v > 1",
	} {
		if _, sp := plan(sql); sp != nil {
			t.Errorf("%s: planned, want the empty plan", sql)
		}
	}
}

// dbCatalog serves the engine's tables to relalg.Build.
type dbCatalog struct{ db *DB }

func (c dbCatalog) TableColumns(table string) ([]string, bool) {
	tbl := c.db.Table(table)
	if tbl == nil {
		return nil, false
	}
	names := make([]string, len(tbl.Schema.Columns))
	for i, col := range tbl.Schema.Columns {
		names[i] = col.Name
	}
	return names, true
}

// TestCommaLinkMatchesRelalg: a three-item comma join whose first linking
// conjunct, in WHERE order, joins item 0 to item 2, and whose second links
// items 1 and 2. The plan keys each CROSS join on the columns relalg.Build
// keys the same join on, so the shape the sensitivity analysis sees is the
// shape that executes; the unused link stays a filter above the joins.
func TestCommaLinkMatchesRelalg(t *testing.T) {
	db := rewriteTestDB(rand.New(rand.NewSource(1)), 20)
	stmt, err := sqlparser.Parse("SELECT COUNT(*) FROM t, u, x WHERE t.k = x.w AND u.w > 3 AND u.w = x.w AND t.k = u.k")
	if err != nil {
		t.Fatal(err)
	}
	sp := (&execContext{db: db}).planFor(stmt)
	if sp == nil {
		t.Fatal("no plan")
	}
	// The plan's links, bottom join first, as "left.col=right.col" with the
	// left input's column first.
	var got []string
	for j, ok := sp.from.(*sqlparser.JoinExpr); ok; j, ok = j.Left.(*sqlparser.JoinExpr) {
		b, _ := sp.join(j).link.(*sqlparser.BinaryExpr)
		if b == nil {
			t.Fatalf("join over %+v has no link", j.Right)
		}
		l, r := b.Left.(*sqlparser.ColumnRef), b.Right.(*sqlparser.ColumnRef)
		if l.Table == j.Right.(*sqlparser.TableName).Name {
			l, r = r, l
		}
		got = append([]string{l.Table + "." + l.Name + "=" + r.Table + "." + r.Name}, got...)
	}
	q, err := relalg.Build(stmt, dbCatalog{db})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	var walk func(relalg.Relation)
	walk = func(r relalg.Relation) {
		switch n := r.(type) {
		case *relalg.JoinRel:
			walk(n.Left)
			want = append(want, n.LeftKey.BaseTable+"."+n.LeftKey.Column+"="+n.RightKey.BaseTable+"."+n.RightKey.Column)
		case *relalg.SelectRel:
			walk(n.Input)
		case *relalg.ProjectRel:
			walk(n.Input)
		}
	}
	walk(q.Rel)
	if !slices.Equal(got, want) || len(want) != 2 {
		t.Errorf("plan links %q, relalg join keys %q", got, want)
	}
	if jp := sp.join(sp.from.(*sqlparser.JoinExpr).Left.(*sqlparser.JoinExpr)); sqlparser.PrintExpr(jp.pushRight) != "(u.w > 3)" {
		t.Errorf("u.w > 3 not pushed to u: %+v", jp)
	}
	if got := sqlparser.PrintExpr(sp.where); got != "(u.w = x.w)" {
		t.Errorf("where = %s, want the unused link", got)
	}
}

// TestCommaJoinRunsThePlannedTree: a comma join with a linked and a pushed
// conjunct returns the filtered count one-shot and prepared, equal to its
// JOIN … ON spelling and to a loop over the tables. Executing a second fold
// of the FROM would find no plan for its joins, drop both conjuncts and
// count the whole product.
func TestCommaJoinRunsThePlannedTree(t *testing.T) {
	db := rewriteTestDB(rand.New(rand.NewSource(5)), 120)
	var want int64
	for _, tr := range db.Table("t").Rows {
		for _, ur := range db.Table("u").Rows {
			if Equal(tr[0], ur[0]) && tr[1].Int > 50 {
				want++
			}
		}
	}
	const comma = "SELECT COUNT(*) FROM t, u WHERE t.k = u.k AND t.v > 50"
	pq, err := db.Prepare(comma)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rs, err := pq.Exec()
		if err != nil {
			t.Fatal(err)
		}
		if got := rs.Rows[0][0].Int; got != want {
			t.Fatalf("prepared run %d: %d, want %d", i, got, want)
		}
	}
	for _, sql := range []string{comma, "SELECT COUNT(*) FROM t JOIN u ON t.k = u.k WHERE t.v > 50"} {
		if got := queryScalar(t, db, sql).Int; got != want {
			t.Errorf("%s: %d, want %d", sql, got, want)
		}
	}
}

// TestCommaJoinKeySemantics pins the equality a linked comma join matches
// by: the hash-key encoding, as its JOIN … ON spelling always has, not the
// WHERE's =. The two differ on NaN (keys match, = does not) and on integers
// beyond 2^53 (= compares them as float64, keys do not), so on those inputs
// both spellings must return the same rows, and the pinned row counts show
// which rule they share.
func TestCommaJoinKeySemantics(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("a", []Column{{Name: "id", Type: KindInt}, {Name: "f", Type: KindFloat}, {Name: "i", Type: KindInt}})
	db.MustCreateTable("b", []Column{{Name: "id", Type: KindInt}, {Name: "f", Type: KindFloat}})
	nan := NewFloat(math.NaN())
	if err := db.InsertRows("a", [][]Value{
		{NewInt(1), nan, NewInt(1<<53 + 1)},
		{NewInt(2), NewFloat(2.5), NewInt(3)},
		{NewInt(3), nan, NewInt(1 << 53)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("b", [][]Value{
		{NewInt(10), NewFloat(1 << 53)},
		{NewInt(11), nan},
		{NewInt(12), NewFloat(3)},
		{NewInt(13), NewFloat(2.5)},
	}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		on   string
		rows int
	}{
		{"a.f = b.f", 3}, // NaN matches NaN twice, 2.5 once
		{"a.i = b.f", 2}, // 3 = 3.0 and 2^53 = 2^53; 2^53+1 matches nothing
		{"b.f = a.i AND a.id > 1", 2},
	} {
		comma := "SELECT a.id, b.id FROM a, b WHERE " + c.on
		join := "SELECT a.id, b.id FROM a JOIN b ON " + c.on
		want, err := db.Query(join)
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Query(comma)
		if err != nil {
			t.Fatal(err)
		}
		if diff := resultsEqualExact(want, got); diff != "" {
			t.Errorf("%s vs its JOIN spelling: %s", comma, diff)
		}
		if len(want.Rows) != c.rows {
			t.Errorf("%s: %d rows, want %d", join, len(want.Rows), c.rows)
		}
	}
}

// manyToManyDB mirrors the Table-2 many-to-many template: both sides repeat
// the join key, and the WHERE keeps one city in forty.
func manyToManyDB(trips int) *DB {
	db := NewDB()
	db.MustCreateTable("trips", []Column{
		{Name: "id", Type: KindInt}, {Name: "city_id", Type: KindInt},
		{Name: "day", Type: KindInt}, {Name: "fare", Type: KindFloat},
	})
	db.MustCreateTable("user_tags", []Column{
		{Name: "user_id", Type: KindInt}, {Name: "day", Type: KindInt}, {Name: "tag", Type: KindString},
	})
	rows := make([][]Value, trips)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i)), NewInt(int64(i % 40)), NewInt(int64(i % 30)), NewFloat(float64(i%17) + 0.5)}
	}
	tags := make([][]Value, 300)
	for i := range tags {
		tags[i] = []Value{NewInt(int64(i)), NewInt(int64(i % 30)), NewString("t")}
	}
	if err := db.InsertRows("trips", rows); err != nil {
		panic(err)
	}
	if err := db.InsertRows("user_tags", tags); err != nil {
		panic(err)
	}
	return db
}

// emptyPlan is the plan that rewrites nothing: the FROM folded but no comma
// join linked, the whole WHERE above the joins, through the same executor.
func emptyPlan(stmt *sqlparser.SelectStmt) *selectPlan {
	return &selectPlan{from: foldFrom(stmt.From), where: stmt.Where}
}

// TestRewriteMechanism observes the rewrite through ExecConfig.Profile: the
// pushed filter sees every trips row and precedes the join, the join's output
// falls at least tenfold against the empty plan, the compiled-closure cache
// stops growing after the first execution, and the shared AST is never
// mutated.
func TestRewriteMechanism(t *testing.T) {
	const trips = 4000
	db := manyToManyDB(trips)
	db.SetMemoryBudget(0) // the in-memory operators, whatever budget the test leg forces
	const sql = "SELECT COUNT(*) FROM trips t JOIN user_tags g ON t.day = g.day WHERE t.city_id = 7"
	profiled := func(pq *PreparedQuery) (*ResultSet, *QueryProfile) {
		t.Helper()
		cfg := db.ExecConfig()
		var prof QueryProfile
		cfg.Profile = &prof
		rs, err := pq.ExecContextConfig(t.Context(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rs, &prof
	}
	op := func(p *QueryProfile, name string) (int, OpProfile) {
		for i, o := range p.Operators {
			if o.Name == name {
				return i, o
			}
		}
		t.Fatalf("no %s operator in %+v", name, p.Operators)
		return 0, OpProfile{}
	}

	naive, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	naive.plansFor(db.Version()).sp[naive.stmt] = emptyPlan(naive.stmt)
	wantRows, naiveProf := profiled(naive)

	pq, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	before := sqlparser.Print(pq.stmt)
	gotRows, prof := profiled(pq)
	if diff := resultsEqualExact(wantRows, gotRows); diff != "" {
		t.Fatalf("rewritten result differs from the empty plan's: %s", diff)
	}
	fi, filter := op(prof, "filter")
	ji, join := op(prof, "hash_join")
	_, naiveJoin := op(naiveProf, "hash_join")
	if filter.RowsIn != trips || fi > ji || filter.Detail != "pushed=t" {
		t.Errorf("pushed filter: %+v at %d, join at %d; want rows_in=%d before the join", filter, fi, ji, trips)
	}
	if join.RowsOut*10 > naiveJoin.RowsOut || join.RowsOut == 0 {
		t.Errorf("hash_join rows_out %d vs %d under the empty plan: want a ≥10× fall", join.RowsOut, naiveJoin.RowsOut)
	}
	if join.Detail != "build_rows=300/300 keep=0/7" || naiveJoin.Detail != "build_rows=300/300 keep=7/7" {
		t.Errorf("join details %q / %q", join.Detail, naiveJoin.Detail)
	}

	plans := pq.plansFor(db.Version())
	size, batch := plans.size(), len(plans.mb)
	for i := 0; i < 3; i++ {
		if _, err := pq.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	if plans.size() != size || len(plans.mb) != batch || len(plans.sp) != 1 {
		t.Errorf("plan cache grew across executions: closures %d→%d, kernels %d→%d, plans %d",
			size, plans.size(), batch, len(plans.mb), len(plans.sp))
	}
	if after := sqlparser.Print(pq.stmt); after != before {
		t.Errorf("Exec mutated the shared AST:\n%s\n%s", before, after)
	}
}

// TestPlanJoinFreeAllocatesNothing: the statements that dominate the hot
// serving path have no join, and planning them must cost nothing.
func TestPlanJoinFreeAllocatesNothing(t *testing.T) {
	db := manyToManyDB(10)
	stmt, err := sqlparser.Parse("SELECT city_id, COUNT(*) FROM trips WHERE day > 3 GROUP BY city_id")
	if err != nil {
		t.Fatal(err)
	}
	ctx := &execContext{db: db, plans: newPlanCache()}
	if n := testing.AllocsPerRun(100, func() {
		if ctx.planFor(stmt) != nil {
			t.Fatal("join-free statement was planned")
		}
	}); n != 0 {
		t.Errorf("planning a join-free statement allocates %v times", n)
	}
}

// TestGroupKeyLookupDoesNotAllocatePerRow pins the grouped-aggregation fix:
// the group-key string is materialized once per group, not once per row.
func TestGroupKeyLookupDoesNotAllocatePerRow(t *testing.T) {
	const trips = 20000
	db := manyToManyDB(trips)
	db.SetMemoryBudget(0) // the in-memory aggregation, whatever budget the test leg forces
	db.SetParallelism(1)
	pq, err := db.Prepare("SELECT city_id, COUNT(*) FROM trips GROUP BY city_id")
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(5, func() {
		if _, err := pq.Exec(); err != nil {
			t.Fatal(err)
		}
	}); n > trips/4 {
		t.Errorf("grouped COUNT(*) over %d rows allocates %v times: per-row key strings are back", trips, n)
	}
}
