package engine

import (
	"fmt"
	"reflect"
	"testing"
)

// testDB builds a small rideshare-flavored database used across tests.
func testDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.MustCreateTable("trips", []Column{
		{Name: "id", Type: KindInt},
		{Name: "driver_id", Type: KindInt},
		{Name: "city_id", Type: KindInt},
		{Name: "fare", Type: KindFloat},
		{Name: "status", Type: KindString},
	})
	rows := [][]Value{
		{NewInt(1), NewInt(10), NewInt(1), NewFloat(12.5), NewString("completed")},
		{NewInt(2), NewInt(10), NewInt(1), NewFloat(8.0), NewString("completed")},
		{NewInt(3), NewInt(11), NewInt(2), NewFloat(30.0), NewString("canceled")},
		{NewInt(4), NewInt(12), NewInt(1), NewFloat(5.0), NewString("completed")},
		{NewInt(5), NewInt(11), NewInt(2), NewFloat(22.0), NewString("completed")},
	}
	if err := db.InsertRows("trips", rows); err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable("drivers", []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
		{Name: "home_city", Type: KindInt},
	})
	if err := db.InsertRows("drivers", [][]Value{
		{NewInt(10), NewString("ann"), NewInt(1)},
		{NewInt(11), NewString("bob"), NewInt(2)},
		{NewInt(12), NewString("cid"), NewInt(1)},
		{NewInt(13), NewString("dee"), NewInt(3)},
	}); err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable("cities", []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
	})
	if err := db.InsertRows("cities", [][]Value{
		{NewInt(1), NewString("sf")},
		{NewInt(2), NewString("nyc")},
		{NewInt(3), NewString("la")},
	}); err != nil {
		t.Fatal(err)
	}
	return db
}

func queryScalar(t *testing.T, db *DB, sql string) Value {
	t.Helper()
	rs, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	v, err := rs.Scalar()
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return v
}

func TestCountStar(t *testing.T) {
	db := testDB(t)
	if got := queryScalar(t, db, "SELECT COUNT(*) FROM trips"); got.Int != 5 {
		t.Errorf("COUNT(*) = %v, want 5", got)
	}
}

func TestWhereFilter(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, "SELECT COUNT(*) FROM trips WHERE status = 'completed'")
	if got.Int != 4 {
		t.Errorf("count = %v, want 4", got)
	}
}

func TestWhereComparisonOperators(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want int64
	}{
		{"SELECT COUNT(*) FROM trips WHERE fare > 10", 3},
		{"SELECT COUNT(*) FROM trips WHERE fare >= 12.5", 3},
		{"SELECT COUNT(*) FROM trips WHERE fare < 8", 1},
		{"SELECT COUNT(*) FROM trips WHERE fare <= 8", 2},
		{"SELECT COUNT(*) FROM trips WHERE fare <> 5", 4},
		{"SELECT COUNT(*) FROM trips WHERE city_id = 1 AND fare > 6", 2},
		{"SELECT COUNT(*) FROM trips WHERE city_id = 2 OR fare = 5", 3},
		{"SELECT COUNT(*) FROM trips WHERE NOT (city_id = 1)", 2},
		{"SELECT COUNT(*) FROM trips WHERE fare BETWEEN 8 AND 25", 3},
		{"SELECT COUNT(*) FROM trips WHERE status LIKE 'comp%'", 4},
		{"SELECT COUNT(*) FROM trips WHERE status LIKE '%cele%'", 1},
		{"SELECT COUNT(*) FROM trips WHERE status LIKE 'c_nceled'", 1},
		{"SELECT COUNT(*) FROM trips WHERE driver_id IN (10, 12)", 3},
		{"SELECT COUNT(*) FROM trips WHERE driver_id NOT IN (10, 12)", 2},
	}
	for _, c := range cases {
		if got := queryScalar(t, db, c.sql); got.Int != c.want {
			t.Errorf("%s = %v, want %d", c.sql, got, c.want)
		}
	}
}

func TestProjection(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT id, fare * 2 AS double_fare FROM trips WHERE id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rs.Columns, []string{"id", "double_fare"}) {
		t.Errorf("columns = %v", rs.Columns)
	}
	if rs.Rows[0][1].AsFloat() != 25.0 {
		t.Errorf("double_fare = %v, want 25", rs.Rows[0][1])
	}
}

func TestSelectStar(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT * FROM cities")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Columns) != 2 || len(rs.Rows) != 3 {
		t.Errorf("got %dx%d", len(rs.Rows), len(rs.Columns))
	}
}

func TestInnerJoin(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id")
	if got.Int != 5 {
		t.Errorf("join count = %v, want 5", got)
	}
}

func TestJoinReversedCondition(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips t JOIN drivers d ON d.id = t.driver_id")
	if got.Int != 5 {
		t.Errorf("join count = %v, want 5", got)
	}
}

func TestJoinWithResidualPredicate(t *testing.T) {
	db := testDB(t)
	// Equijoin term plus extra predicate, as in the paper's Section 3.3
	// compound-condition example.
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id AND t.fare > 10")
	if got.Int != 3 {
		t.Errorf("count = %v, want 3", got)
	}
}

func TestLeftJoin(t *testing.T) {
	db := testDB(t)
	// Driver 13 has no trips; LEFT JOIN keeps her with NULL trip columns.
	rs, err := db.Query(
		"SELECT d.name, t.id FROM drivers d LEFT JOIN trips t ON d.id = t.driver_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 6 {
		t.Fatalf("left join rows = %d, want 6", len(rs.Rows))
	}
	nulls := 0
	for _, r := range rs.Rows {
		if r[1].IsNull() {
			nulls++
		}
	}
	if nulls != 1 {
		t.Errorf("null-padded rows = %d, want 1", nulls)
	}
}

func TestRightJoin(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query(
		"SELECT t.id, d.name FROM trips t RIGHT JOIN drivers d ON t.driver_id = d.id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 6 {
		t.Errorf("right join rows = %d, want 6", len(rs.Rows))
	}
}

func TestFullJoin(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("a", []Column{{Name: "x", Type: KindInt}})
	db.MustCreateTable("b", []Column{{Name: "y", Type: KindInt}})
	_ = db.InsertRows("a", [][]Value{{NewInt(1)}, {NewInt(2)}})
	_ = db.InsertRows("b", [][]Value{{NewInt(2)}, {NewInt(3)}})
	rs, err := db.Query("SELECT * FROM a FULL JOIN b ON a.x = b.y")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 { // (2,2), (1,NULL), (NULL,3)
		t.Errorf("full join rows = %d, want 3", len(rs.Rows))
	}
}

func TestCrossJoin(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, "SELECT COUNT(*) FROM drivers CROSS JOIN cities")
	if got.Int != 12 {
		t.Errorf("cross join count = %v, want 12", got)
	}
}

func TestImplicitCrossJoin(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, "SELECT COUNT(*) FROM drivers, cities")
	if got.Int != 12 {
		t.Errorf("implicit cross join count = %v, want 12", got)
	}
}

func TestJoinUsing(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("a", []Column{{Name: "id", Type: KindInt}, {Name: "v", Type: KindInt}})
	db.MustCreateTable("b", []Column{{Name: "id", Type: KindInt}, {Name: "w", Type: KindInt}})
	_ = db.InsertRows("a", [][]Value{{NewInt(1), NewInt(100)}, {NewInt(2), NewInt(200)}})
	_ = db.InsertRows("b", [][]Value{{NewInt(1), NewInt(7)}})
	rs, err := db.Query("SELECT COUNT(*) FROM a JOIN b USING (id)")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := rs.Scalar()
	if v.Int != 1 {
		t.Errorf("USING join count = %v, want 1", v)
	}
}

func TestSelfJoin(t *testing.T) {
	db := testDB(t)
	// Pairs of distinct trips by the same driver.
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id AND a.id < b.id")
	if got.Int != 2 { // (1,2) for driver 10, (3,5) for driver 11
		t.Errorf("self join count = %v, want 2", got)
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, `SELECT COUNT(*) FROM trips t
		JOIN drivers d ON t.driver_id = d.id
		JOIN cities c ON t.city_id = c.id
		WHERE c.name = 'sf'`)
	if got.Int != 3 {
		t.Errorf("three-way join count = %v, want 3", got)
	}
}

func TestNullJoinKeysNeverMatch(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("a", []Column{{Name: "x", Type: KindInt}})
	db.MustCreateTable("b", []Column{{Name: "y", Type: KindInt}})
	_ = db.InsertRows("a", [][]Value{{Null}, {NewInt(1)}})
	_ = db.InsertRows("b", [][]Value{{Null}, {NewInt(1)}})
	v := queryScalar(t, db, "SELECT COUNT(*) FROM a JOIN b ON a.x = b.y")
	if v.Int != 1 {
		t.Errorf("null-key join count = %v, want 1", v)
	}
}

func TestGroupByCount(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query(
		"SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id ORDER BY driver_id")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int64{{10, 2}, {11, 2}, {12, 1}}
	if len(rs.Rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rs.Rows), len(want))
	}
	for i, w := range want {
		if rs.Rows[i][0].Int != w[0] || rs.Rows[i][1].Int != w[1] {
			t.Errorf("row %d = %v, want %v", i, rs.Rows[i], w)
		}
	}
}

func TestAggregateFunctions(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want float64
	}{
		{"SELECT SUM(fare) FROM trips", 77.5},
		{"SELECT AVG(fare) FROM trips", 15.5},
		{"SELECT MIN(fare) FROM trips", 5.0},
		{"SELECT MAX(fare) FROM trips", 30.0},
		{"SELECT MEDIAN(fare) FROM trips", 12.5},
		{"SELECT COUNT(DISTINCT driver_id) FROM trips", 3},
		{"SELECT COUNT(DISTINCT city_id) FROM trips", 2},
	}
	for _, c := range cases {
		got := queryScalar(t, db, c.sql)
		if got.AsFloat() != c.want {
			t.Errorf("%s = %v, want %g", c.sql, got, c.want)
		}
	}
}

func TestCountIgnoresNulls(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("t", []Column{{Name: "x", Type: KindInt}})
	_ = db.InsertRows("t", [][]Value{{NewInt(1)}, {Null}, {NewInt(3)}})
	if v := queryScalar(t, db, "SELECT COUNT(x) FROM t"); v.Int != 2 {
		t.Errorf("COUNT(x) = %v, want 2", v)
	}
	if v := queryScalar(t, db, "SELECT COUNT(*) FROM t"); v.Int != 3 {
		t.Errorf("COUNT(*) = %v, want 3", v)
	}
	if v := queryScalar(t, db, "SELECT SUM(x) FROM t"); v.Int != 4 {
		t.Errorf("SUM(x) = %v, want 4", v)
	}
}

func TestHaving(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query(
		"SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id HAVING COUNT(*) > 1 ORDER BY driver_id")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rs.Rows))
	}
}

func TestAggregateArithmetic(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, "SELECT COUNT(*) + 100 FROM trips")
	if got.Int != 105 {
		t.Errorf("COUNT(*)+100 = %v, want 105", got)
	}
	got2 := queryScalar(t, db, "SELECT SUM(fare) / COUNT(*) FROM trips")
	if got2.AsFloat() != 15.5 {
		t.Errorf("SUM/COUNT = %v, want 15.5", got2)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query(
		"SELECT city_id * 10, COUNT(*) FROM trips GROUP BY city_id * 10 ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 10 || rs.Rows[1][0].Int != 20 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestOrderByDesc(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT id FROM trips ORDER BY fare DESC")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int != 3 { // fare 30
		t.Errorf("first row id = %v, want 3", rs.Rows[0][0])
	}
}

func TestOrderByAlias(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query(
		"SELECT driver_id, COUNT(*) AS n FROM trips GROUP BY driver_id ORDER BY n DESC, driver_id")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][1].Int != 2 {
		t.Errorf("top n = %v, want 2", rs.Rows[0][1])
	}
}

func TestMfMetricQueryShape(t *testing.T) {
	// The exact query the paper gives for collecting mf metrics (Section 4).
	db := testDB(t)
	rs, err := db.Query(
		"SELECT COUNT(driver_id) FROM trips GROUP BY driver_id ORDER BY count DESC LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	v, err := rs.Scalar()
	if err != nil {
		t.Fatal(err)
	}
	if v.Int != 2 {
		t.Errorf("mf(driver_id) = %v, want 2", v)
	}
}

// TestLimitOffset pins LIMIT/OFFSET evaluation beyond integer literals, and
// the trailing ORDER BY after a set operation, one-shot and prepared (the
// prepared statement runs twice so the second run reads its plan cache).
func TestLimitOffset(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql     string
		want    []int64
		wantErr string
	}{
		{sql: "SELECT id FROM trips ORDER BY id LIMIT 2 OFFSET 1", want: []int64{2, 3}},
		{sql: "SELECT id FROM trips ORDER BY id LIMIT 1+1", want: []int64{1, 2}},
		{sql: "SELECT id FROM trips ORDER BY id LIMIT (SELECT COUNT(*) FROM cities)", want: []int64{1, 2, 3}},
		{sql: "SELECT id FROM trips ORDER BY id LIMIT 2 OFFSET -3", want: []int64{1, 2}},
		{sql: "SELECT id FROM trips ORDER BY id OFFSET 4", want: []int64{5}},
		{sql: "SELECT id FROM trips LIMIT 1.5", wantErr: "engine: LIMIT/OFFSET must be integer, got FLOAT"},
		{sql: "SELECT id FROM trips LIMIT NULL", wantErr: "engine: LIMIT/OFFSET must be integer, got NULL"},
		{sql: "SELECT id FROM trips LIMIT k", wantErr: `engine: unknown column "k"`},
		{sql: "SELECT id FROM trips UNION SELECT id FROM cities ORDER BY id + 1",
			wantErr: "engine: ORDER BY expression (id + 1) not resolvable after set operation"},
	}
	for _, c := range cases {
		pq, err := db.Prepare(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			mode string
			exec func() (*ResultSet, error)
		}{
			{"one-shot", func() (*ResultSet, error) { return db.Query(c.sql) }},
			{"prepared", pq.Exec},
			{"cached", pq.Exec},
		} {
			rs, err := run.exec()
			if c.wantErr != "" {
				if err == nil || err.Error() != c.wantErr {
					t.Errorf("%s %s: error %v, want %q", run.mode, c.sql, err, c.wantErr)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s %s: %v", run.mode, c.sql, err)
				continue
			}
			var got []int64
			for _, row := range rs.Rows {
				got = append(got, row[0].Int)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s %s: ids %v, want %v", run.mode, c.sql, got, c.want)
			}
		}
	}
}

func TestDistinct(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT DISTINCT city_id FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("distinct rows = %d, want 2", len(rs.Rows))
	}
}

func TestUnion(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT id FROM cities UNION SELECT city_id FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Errorf("union rows = %d, want 3", len(rs.Rows))
	}
	rs2, err := db.Query("SELECT id FROM cities UNION ALL SELECT city_id FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Rows) != 8 {
		t.Errorf("union all rows = %d, want 8", len(rs2.Rows))
	}
}

func TestIntersectExcept(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT id FROM cities INTERSECT SELECT city_id FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("intersect rows = %d, want 2", len(rs.Rows))
	}
	rs2, err := db.Query("SELECT id FROM cities EXCEPT SELECT city_id FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Rows) != 1 || rs2.Rows[0][0].Int != 3 {
		t.Errorf("except rows = %v", rs2.Rows)
	}
}

// TestSetOpAllSemantics pins the multiset forms: INTERSECT ALL keeps the
// minimum multiplicity of each row across the sides, EXCEPT ALL subtracts
// the right side's multiplicities — neither dedupes. trips carries city_id
// multiset {1,1,1,2,2}; cities carries {1,2,3}.
func TestSetOpAllSemantics(t *testing.T) {
	db := testDB(t)
	cases := []struct {
		sql  string
		want []int64
	}{
		// min(3,1) ones, min(2,1) twos, first occurrences in left order.
		{"SELECT city_id FROM trips INTERSECT ALL SELECT id FROM cities", []int64{1, 2}},
		{"SELECT id FROM cities INTERSECT ALL SELECT city_id FROM trips", []int64{1, 2}},
		// {1,1,2,1,2} minus {1,2,3}: the earliest 1 and 2 cancel, the
		// remaining occurrences keep left order.
		{"SELECT city_id FROM trips EXCEPT ALL SELECT id FROM cities", []int64{1, 1, 2}},
		// {1,2,3} minus {1,1,1,2,2}: only the 3 survives.
		{"SELECT id FROM cities EXCEPT ALL SELECT city_id FROM trips", []int64{3}},
		// The DISTINCT forms still dedupe.
		{"SELECT city_id FROM trips INTERSECT SELECT id FROM cities", []int64{1, 2}},
		{"SELECT city_id FROM trips EXCEPT SELECT id FROM cities", nil},
	}
	for _, c := range cases {
		rs, err := db.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		var got []int64
		for _, r := range rs.Rows {
			got = append(got, r[0].Int)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s = %v, want %v", c.sql, got, c.want)
		}
	}
}

// TestEmptyGroupAggregates pins SQL's zero-row aggregate semantics — SUM,
// AVG, MIN, MAX, MEDIAN, STDDEV over no matching rows yield NULL while the
// COUNTs yield 0 — identically on the serial, parallel, and budgeted paths.
func TestEmptyGroupAggregates(t *testing.T) {
	db := testDB(t)
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(2)
	check := func(label string) {
		t.Helper()
		rs, err := db.Query(`SELECT SUM(fare), AVG(fare), MIN(fare), MAX(fare),
			MEDIAN(fare), STDDEV(fare), COUNT(fare), COUNT(*) FROM trips WHERE fare > 1000`)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		row := rs.Rows[0]
		for i := 0; i < 6; i++ {
			if !row[i].IsNull() {
				t.Errorf("%s: column %d = %v, want NULL", label, i, row[i])
			}
		}
		for i := 6; i < 8; i++ {
			if row[i].Kind != KindInt || row[i].Int != 0 {
				t.Errorf("%s: column %d = %v, want 0", label, i, row[i])
			}
		}
		// All-NULL aggregate input behaves like zero rows.
		if v := queryScalar(t, db, `SELECT SUM(CASE WHEN fare > 1000 THEN fare END) FROM trips`); !v.IsNull() {
			t.Errorf("%s: SUM over all-NULL input = %v, want NULL", label, v)
		}
		// An empty input with GROUP BY yields zero groups, not a NULL row.
		rs, err = db.Query(`SELECT city_id, SUM(fare) FROM trips WHERE id > 100 GROUP BY city_id`)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if len(rs.Rows) != 0 {
			t.Errorf("%s: empty grouped input produced %d rows", label, len(rs.Rows))
		}
	}
	for _, workers := range []int{1, 2, 8} {
		for _, budget := range []int64{0, 64} {
			db.SetParallelism(workers)
			db.SetMemoryBudget(budget)
			check(fmt.Sprintf("workers=%d budget=%d", workers, budget))
		}
	}
	db.SetParallelism(0)
	db.SetMemoryBudget(0)
}

func TestSubqueryInFrom(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM (SELECT * FROM trips WHERE fare > 10) big")
	if got.Int != 3 {
		t.Errorf("subquery count = %v, want 3", got)
	}
}

func TestScalarSubquery(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips WHERE fare > (SELECT AVG(fare) FROM trips)")
	if got.Int != 2 {
		t.Errorf("count = %v, want 2", got)
	}
}

func TestInSubquery(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips WHERE city_id IN (SELECT id FROM cities WHERE name = 'sf')")
	if got.Int != 3 {
		t.Errorf("count = %v, want 3", got)
	}
}

func TestExistsSubquery(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips WHERE EXISTS (SELECT 1 FROM cities WHERE name = 'sf')")
	if got.Int != 5 {
		t.Errorf("count = %v, want 5", got)
	}
	got2 := queryScalar(t, db,
		"SELECT COUNT(*) FROM trips WHERE NOT EXISTS (SELECT 1 FROM cities WHERE name = 'xx')")
	if got2.Int != 5 {
		t.Errorf("count = %v, want 5", got2)
	}
}

func TestCTE(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, `WITH sf AS (SELECT * FROM trips WHERE city_id = 1)
		SELECT COUNT(*) FROM sf`)
	if got.Int != 3 {
		t.Errorf("CTE count = %v, want 3", got)
	}
}

func TestCTEChained(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, `WITH a AS (SELECT * FROM trips WHERE fare > 5),
		b AS (SELECT * FROM a WHERE city_id = 1)
		SELECT COUNT(*) FROM b`)
	if got.Int != 2 {
		t.Errorf("chained CTE count = %v, want 2", got)
	}
}

func TestCTEJoinOnCounts(t *testing.T) {
	// The paper's Section 3.7.1 unsupported-for-DP query still executes.
	db := testDB(t)
	got := queryScalar(t, db, `WITH a AS (SELECT COUNT(*) FROM trips),
		b AS (SELECT COUNT(*) FROM drivers)
		SELECT COUNT(*) FROM a JOIN b ON a.count < b.count`)
	if got.Int != 0 { // 5 trips vs 4 drivers: 5 < 4 is false
		t.Errorf("count = %v, want 0", got)
	}
}

func TestCaseExpression(t *testing.T) {
	db := testDB(t)
	got := queryScalar(t, db, `SELECT SUM(CASE WHEN fare > 10 THEN 1 ELSE 0 END) FROM trips`)
	if got.Int != 3 {
		t.Errorf("conditional sum = %v, want 3", got)
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := NewDB()
	if v := queryScalar(t, db, "SELECT 1 + 2"); v.Int != 3 {
		t.Errorf("SELECT 1+2 = %v", v)
	}
}

func TestCoalesceAndScalarFuncs(t *testing.T) {
	db := NewDB()
	if v := queryScalar(t, db, "SELECT COALESCE(NULL, 5)"); v.Int != 5 {
		t.Errorf("COALESCE = %v", v)
	}
	if v := queryScalar(t, db, "SELECT UPPER('ab')"); v.Str != "AB" {
		t.Errorf("UPPER = %v", v)
	}
	if v := queryScalar(t, db, "SELECT ABS(-3)"); v.Int != 3 {
		t.Errorf("ABS = %v", v)
	}
	if v := queryScalar(t, db, "SELECT LENGTH('abcd')"); v.Int != 4 {
		t.Errorf("LENGTH = %v", v)
	}
}

func TestCast(t *testing.T) {
	db := NewDB()
	if v := queryScalar(t, db, "SELECT CAST('42' AS INT)"); v.Int != 42 {
		t.Errorf("cast = %v", v)
	}
	if v := queryScalar(t, db, "SELECT CAST(3.9 AS INT)"); v.Int != 3 {
		t.Errorf("cast = %v", v)
	}
	if v := queryScalar(t, db, "SELECT CAST(7 AS VARCHAR)"); v.Str != "7" {
		t.Errorf("cast = %v", v)
	}
}

func TestDivisionByZeroIsNull(t *testing.T) {
	db := NewDB()
	rs, err := db.Query("SELECT 1 / 0")
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Rows[0][0].IsNull() {
		t.Errorf("1/0 = %v, want NULL", rs.Rows[0][0])
	}
}

func TestErrors(t *testing.T) {
	db := testDB(t)
	cases := []string{
		"SELECT * FROM missing_table",
		"SELECT nope FROM trips",
		"SELECT t.nope FROM trips t",
		"SELECT id FROM trips JOIN drivers ON trips.driver_id = drivers.id", // ambiguous id
		"SELECT * FROM trips GROUP BY city_id",                              // star with aggregation
	}
	for _, sql := range cases {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q): expected error", sql)
		}
	}
}

func TestAmbiguousColumnDetected(t *testing.T) {
	db := testDB(t)
	_, err := db.Query("SELECT id FROM trips t JOIN drivers d ON t.driver_id = d.id")
	if err == nil {
		t.Fatal("expected ambiguous column error")
	}
}

func TestInsertArityChecked(t *testing.T) {
	db := testDB(t)
	if err := db.Insert("cities", []Value{NewInt(9)}); err == nil {
		t.Error("expected arity error")
	}
	if err := db.Insert("nope", []Value{NewInt(9)}); err == nil {
		t.Error("expected unknown table error")
	}
}

func TestTotalRows(t *testing.T) {
	db := testDB(t)
	if n := db.TotalRows(); n != 12 { // 5 trips + 4 drivers + 3 cities
		t.Errorf("TotalRows = %d, want 12", n)
	}
}

func TestCheckRangeConstraint(t *testing.T) {
	db := testDB(t)
	if err := db.AddCheckRange("trips", "fare", 0, 100); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("trips", []Value{NewInt(9), NewInt(10), NewInt(1), NewFloat(150), NewString("x")}); err == nil {
		t.Error("violating insert should fail")
	}
	if err := db.Insert("trips", []Value{NewInt(9), NewInt(10), NewInt(1), NewFloat(50), NewString("x")}); err != nil {
		t.Errorf("valid insert failed: %v", err)
	}
	// NULL values pass check constraints.
	if err := db.Insert("trips", []Value{NewInt(10), NewInt(10), NewInt(1), Null, NewString("x")}); err != nil {
		t.Errorf("NULL insert failed: %v", err)
	}
	// Constraint violated by existing data is rejected at install time.
	if err := db.AddCheckRange("trips", "fare", 0, 10); err == nil {
		t.Error("retroactive violation should fail")
	}
	if err := db.AddCheckRange("missing", "x", 0, 1); err == nil {
		t.Error("unknown table should fail")
	}
	if err := db.AddCheckRange("trips", "nope", 0, 1); err == nil {
		t.Error("unknown column should fail")
	}
	if err := db.AddCheckRange("trips", "fare", 10, 0); err == nil {
		t.Error("inverted range should fail")
	}
}

func TestDuplicateCreateRejected(t *testing.T) {
	db := testDB(t)
	if _, err := db.CreateTable("TRIPS", nil); err == nil {
		t.Error("expected duplicate table error (case-insensitive)")
	}
}

func TestGroupByPositional(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT city_id, COUNT(*) FROM trips GROUP BY 1 ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][0].Int != 1 || rs.Rows[0][1].Int != 3 {
		t.Errorf("rows = %v", rs.Rows)
	}
	if _, err := db.Query("SELECT city_id, COUNT(*) FROM trips GROUP BY 9"); err == nil {
		t.Error("out-of-range position should fail")
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT city_id, fare FROM trips ORDER BY city_id DESC, fare")
	if err != nil {
		t.Fatal(err)
	}
	// city 2 first (desc), then fares ascending within each city.
	if rs.Rows[0][0].Int != 2 || rs.Rows[0][1].AsFloat() != 22.0 {
		t.Errorf("first row = %v", rs.Rows[0])
	}
	last := rs.Rows[len(rs.Rows)-1]
	if last[0].Int != 1 || last[1].AsFloat() != 12.5 {
		t.Errorf("last row = %v", last)
	}
}

func TestOrderByAfterSetOp(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query(
		"SELECT id FROM cities UNION SELECT city_id FROM trips ORDER BY id DESC")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int != 3 {
		t.Errorf("first = %v, want 3", rs.Rows[0][0])
	}
	// Positional works too.
	rs2, err := db.Query(
		"SELECT id FROM cities UNION SELECT city_id FROM trips ORDER BY 1")
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Rows[0][0].Int != 1 {
		t.Errorf("first = %v, want 1", rs2.Rows[0][0])
	}
}

func TestHavingWithNonAggregatePredicate(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query(
		"SELECT city_id, COUNT(*) FROM trips GROUP BY city_id HAVING city_id = 1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int != 1 {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestAvgOfIntColumn(t *testing.T) {
	db := testDB(t)
	v := queryScalar(t, db, "SELECT AVG(city_id) FROM trips")
	if v.AsFloat() != 1.4 {
		t.Errorf("AVG = %v, want 1.4", v)
	}
}

func TestStringConcat(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT name || '!' FROM cities ORDER BY id LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Str != "sf!" {
		t.Errorf("concat = %v", rs.Rows[0][0])
	}
}

func TestNullPropagationInExpressions(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("t", []Column{{Name: "x", Type: KindInt}})
	_ = db.Insert("t", []Value{Null})
	for _, sql := range []string{
		"SELECT x + 1 FROM t",
		"SELECT x = 1 FROM t",
		"SELECT x || 'a' FROM t",
		"SELECT NOT (x = 1) FROM t",
		"SELECT x BETWEEN 1 AND 2 FROM t",
		"SELECT x LIKE 'a%' FROM t",
	} {
		rs, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if !rs.Rows[0][0].IsNull() {
			t.Errorf("%s = %v, want NULL", sql, rs.Rows[0][0])
		}
	}
}

func TestStddevAggregate(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("t", []Column{{Name: "x", Type: KindFloat}})
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		_ = db.Insert("t", []Value{NewFloat(v)})
	}
	v := queryScalar(t, db, "SELECT STDDEV(x) FROM t")
	// Sample stddev of this classic dataset is ~2.138.
	if v.AsFloat() < 2.13 || v.AsFloat() > 2.15 {
		t.Errorf("STDDEV = %v", v)
	}
}
