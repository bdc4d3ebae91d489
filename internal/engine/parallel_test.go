package engine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Differential tests for the morsel-driven parallel executor: every query of
// a randomized corpus must return a bit-identical ResultSet at worker counts
// {1, 2, 8}, with the morsel size shrunk so even small tables span many
// morsels and the merge paths are actually exercised.

// parallelQueries is the corpus: it covers the parallel filter, projection,
// hash-join probe (inner and outer, with residuals), and partial
// aggregation (every aggregate, DISTINCT, HAVING, ORDER BY, expressions
// over aggregates), plus paths that must fall back to serial (subqueries,
// nested loops) without changing results.
var parallelQueries = []string{
	`SELECT COUNT(*) FROM t WHERE v > 20 AND s <> 'b'`,
	`SELECT k, v, f * 2.0 + 1.5 FROM t WHERE v % 3 = 0`,
	`SELECT UPPER(s), ABS(v - 50) FROM t WHERE f BETWEEN 5.0 AND 80.0`,
	`SELECT k, COUNT(*), SUM(v), SUM(f), AVG(f), MIN(f), MAX(v) FROM t GROUP BY k`,
	`SELECT k, MEDIAN(f), STDDEV(f) FROM t GROUP BY k`,
	`SELECT s, COUNT(DISTINCT k), SUM(DISTINCT v) FROM t GROUP BY s`,
	`SELECT k, SUM(f) FROM t WHERE v > 10 GROUP BY k HAVING COUNT(*) > 2 ORDER BY SUM(f) DESC, k`,
	`SELECT COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM t`,
	`SELECT COUNT(*) FROM t WHERE v > 1000`,
	`SELECT SUM(v) FROM t WHERE v > 1000`,
	`SELECT k, SUM(v) + COUNT(*) * 2, CASE WHEN AVG(f) > 40.0 THEN 'hi' ELSE 'lo' END FROM t GROUP BY k`,
	`SELECT DISTINCT k, s FROM t WHERE v < 80`,
	`SELECT DISTINCT k, v FROM t ORDER BY v DESC, k`,
	`SELECT t.k, COUNT(*) FROM t JOIN u ON t.k = u.k GROUP BY t.k ORDER BY t.k`,
	`SELECT COUNT(*) FROM t JOIN u ON t.k = u.k AND t.v > u.w`,
	`SELECT COUNT(*) FROM t LEFT JOIN u ON t.k = u.k`,
	`SELECT COUNT(*) FROM t FULL JOIN u ON t.k = u.k`,
	`SELECT u.name, SUM(t.f) FROM t JOIN u ON t.k = u.k GROUP BY u.name ORDER BY 2 DESC`,
	`SELECT k FROM t WHERE v > 30 ORDER BY f DESC, k LIMIT 7 OFFSET 2`,
	`SELECT v FROM t WHERE v < 20 UNION SELECT w FROM u`,
	// Set operations, including the multiset ALL forms, DISTINCT, and
	// HAVING: all hold hash-key state that the memory budget bounds, so the
	// spill differential reruns of this corpus cover their spilled paths.
	`SELECT v FROM t INTERSECT ALL SELECT w FROM u`,
	`SELECT v FROM t EXCEPT ALL SELECT w FROM u`,
	`SELECT v FROM t INTERSECT SELECT w FROM u`,
	`SELECT v FROM t EXCEPT SELECT w FROM u`,
	`SELECT k, s FROM t EXCEPT ALL SELECT k, s FROM t WHERE v > 50`,
	`SELECT DISTINCT s FROM t UNION ALL SELECT DISTINCT name FROM u`,
	`SELECT k, COUNT(*) FROM t GROUP BY k HAVING SUM(v) > 100 ORDER BY k`,
	`SELECT s, COUNT(DISTINCT k) FROM t GROUP BY s HAVING COUNT(*) > 3 ORDER BY s`,
	`WITH big AS (SELECT k, v FROM t WHERE v > 40) SELECT k, COUNT(*) FROM big GROUP BY k`,
	// Subquery-bearing statements: must fall back to serial and still agree.
	`SELECT COUNT(*) FROM t WHERE k IN (SELECT k FROM u WHERE w > 30)`,
	`SELECT COUNT(*) FROM t WHERE v > (SELECT MIN(w) FROM u)`,
	// Bare scans (no WHERE, no join): the pipeline has no operators and the
	// scan morsels feed the sink directly.
	`SELECT k, f * 2.0 + 1.5 FROM t ORDER BY f, k`,
	`SELECT k, v - (SELECT MIN(w) FROM u) FROM t`,
	`SELECT k, COUNT(*) + (SELECT COUNT(*) FROM u) FROM t GROUP BY k`,
	`SELECT MEDIAN(f), STDDEV(f), COUNT(DISTINCT s) FROM t`,
	// Comma, CROSS, key-less and right-nested joins: comma items linked by a
	// WHERE equality (with NULL keys on both sides) or not linked at all, a
	// non-total WHERE that keeps the product streamed, CTE and derived-table
	// items, key-less joins of every kind (padding order), a parenthesized
	// build side, and a key-less join whose residual holds a subquery.
	`SELECT t.v, u.w FROM t, u WHERE t.k = u.k AND u.w < 10`,
	`SELECT t.k, COUNT(*), SUM(u.w) FROM t, u WHERE u.k = t.k AND t.v > 20 GROUP BY t.k ORDER BY t.k`,
	`SELECT COUNT(*), SUM(t.v * u.w) FROM t, u WHERE t.v < u.w`,
	`SELECT t.v, u.name FROM t, u WHERE t.k = u.k AND t.v / u.w > 1`,
	`WITH c AS (SELECT k, COUNT(*) AS n FROM u GROUP BY k) SELECT t.v, c.n FROM t, c WHERE t.k = c.k AND t.v > 80`,
	`SELECT t.v, d.w FROM t, (SELECT k, w FROM u WHERE w > 40) d WHERE t.k = d.k`,
	`SELECT t.k, u.name FROM t CROSS JOIN u WHERE t.v > 95 AND u.w < 5`,
	`SELECT t.v, u.w FROM t JOIN u ON t.v < u.w AND u.w > 45`,
	`SELECT t.k, t.v, u.w FROM t LEFT JOIN u ON t.v > u.w AND u.w > 50`,
	`SELECT t.v, u.w, u.name FROM t RIGHT JOIN u ON t.v < u.w AND t.v < 3`,
	`SELECT t.v, u.w FROM t FULL JOIN u ON t.v < u.w AND t.v < 5`,
	`SELECT t.v, u.w, u2.name FROM t JOIN (u JOIN u u2 ON u.k = u2.k AND u2.w > 50) ON t.k = u.k AND t.v > 90`,
	`SELECT COUNT(*) FROM t JOIN u ON t.v < u.w AND u.w > (SELECT AVG(v) FROM t)`,
}

// parallelTestDB builds a randomized two-table database with NULLs mixed
// into every column.
func parallelTestDB(rng *rand.Rand, n int) *DB {
	db := NewDB()
	db.MustCreateTable("t", []Column{
		{Name: "k", Type: KindInt},
		{Name: "v", Type: KindInt},
		{Name: "f", Type: KindFloat},
		{Name: "s", Type: KindString},
	})
	db.MustCreateTable("u", []Column{
		{Name: "k", Type: KindInt},
		{Name: "w", Type: KindInt},
		{Name: "name", Type: KindString},
	})
	letters := []string{"a", "b", "c", "d"}
	rows := make([][]Value, 0, n)
	for i := 0; i < n; i++ {
		k := Value(NewInt(int64(rng.Intn(7))))
		if rng.Intn(20) == 0 {
			k = Null
		}
		f := Value(NewFloat(rng.Float64() * 100))
		if rng.Intn(15) == 0 {
			f = Null
		}
		rows = append(rows, []Value{
			k,
			NewInt(int64(rng.Intn(100))),
			f,
			NewString(letters[rng.Intn(len(letters))]),
		})
	}
	if err := db.InsertRows("t", rows); err != nil {
		panic(err)
	}
	urows := make([][]Value, 0, n/4+1)
	for i := 0; i < n/4+1; i++ {
		k := Value(NewInt(int64(rng.Intn(7))))
		if rng.Intn(20) == 0 {
			k = Null
		}
		urows = append(urows, []Value{
			k,
			NewInt(int64(rng.Intn(60))),
			NewString(fmt.Sprintf("name%d", rng.Intn(5))),
		})
	}
	if err := db.InsertRows("u", urows); err != nil {
		panic(err)
	}
	return db
}

// valueEqualExact compares two values bit-for-bit: kinds must match and
// floats compare by bit pattern (Value.Key would conflate 2 with 2.0 and
// hide a kind drift between the serial and parallel paths).
func valueEqualExact(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNull:
		return true
	case KindInt:
		return a.Int == b.Int
	case KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	case KindString:
		return a.Str == b.Str
	case KindBool:
		return a.Bool == b.Bool
	}
	return false
}

func resultsEqualExact(a, b *ResultSet) string {
	if len(a.Columns) != len(b.Columns) {
		return fmt.Sprintf("column count %d vs %d", len(a.Columns), len(b.Columns))
	}
	for i := range a.Columns {
		if a.Columns[i] != b.Columns[i] {
			return fmt.Sprintf("column %d name %q vs %q", i, a.Columns[i], b.Columns[i])
		}
	}
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("row count %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i]) != len(b.Rows[i]) {
			return fmt.Sprintf("row %d arity %d vs %d", i, len(a.Rows[i]), len(b.Rows[i]))
		}
		for j := range a.Rows[i] {
			if !valueEqualExact(a.Rows[i][j], b.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d: %v vs %v", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
	return ""
}

// TestParallelMatchesSerial runs the corpus over randomized databases at
// worker counts {1, 2, 8} with an 8-row morsel, requiring bit-identical
// result sets. Worker count 1 is the serial reference; 2 and 8 exercise
// under- and over-subscribed pools (8 workers on a tiny table also covers
// the workers > morsels cap).
func TestParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 8; trial++ {
		db := parallelTestDB(rng, 60+rng.Intn(200))
		db.SetMorselSize(8)
		for _, sql := range parallelQueries {
			db.SetParallelism(1)
			want, err := db.Query(sql)
			if err != nil {
				t.Fatalf("trial %d serial %s: %v", trial, sql, err)
			}
			for _, workers := range []int{2, 8} {
				db.SetParallelism(workers)
				got, err := db.Query(sql)
				if err != nil {
					t.Fatalf("trial %d workers=%d %s: %v", trial, workers, sql, err)
				}
				if diff := resultsEqualExact(want, got); diff != "" {
					t.Fatalf("trial %d workers=%d %s: %s", trial, workers, sql, diff)
				}
			}
		}
	}
}

// TestParallelPreparedMatchesSerial re-runs a prepared query as the
// parallelism setting changes under it: the cached plan must keep producing
// bit-identical results because compiled closures are schedule-independent.
func TestParallelPreparedMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	db := parallelTestDB(rng, 300)
	db.SetMorselSize(16)
	for _, sql := range parallelQueries {
		pq, err := db.Prepare(sql)
		if err != nil {
			t.Fatalf("prepare %s: %v", sql, err)
		}
		db.SetParallelism(1)
		want, err := pq.Exec()
		if err != nil {
			t.Fatalf("serial %s: %v", sql, err)
		}
		for _, workers := range []int{2, 8} {
			db.SetParallelism(workers)
			got, err := pq.Exec()
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, sql, err)
			}
			if diff := resultsEqualExact(want, got); diff != "" {
				t.Fatalf("workers=%d %s: %s", workers, sql, diff)
			}
		}
	}
}

// TestParallelErrorDeterminism: a data-dependent evaluation error must
// surface with the same text at every worker count (the runSpans
// lowest-morsel rule) and with vectorized kernels on or off. Negating a
// string halts the scan at its first row. The bare-scan cases feed scan
// morsels straight into the projection and aggregation sinks; the join cases
// (comma items under a non-total WHERE, CROSS, key-less ON residuals, a
// parenthesized build side) fail on an early pair of a streamed product.
func TestParallelErrorDeterminism(t *testing.T) {
	db := NewDB()
	db.MustCreateTable("e", []Column{{Name: "x", Type: KindString}, {Name: "n", Type: KindInt}})
	rows := make([][]Value, 100)
	for i := range rows {
		rows[i] = []Value{NewString(fmt.Sprintf("s%d", i)), NewInt(int64(i % 3))}
	}
	if err := db.InsertRows("e", rows); err != nil {
		t.Fatal(err)
	}
	db.SetMorselSize(8)
	cases := []struct{ sql, want string }{
		{`SELECT COUNT(*) FROM e WHERE -x > 0`, `engine: cannot negate STRING`},
		// Both the GROUP BY key and the aggregate argument are unresolvable:
		// the key error must win at every worker count, because the sink
		// evaluates keys before aggregate arguments on each row, mirroring
		// the serial loop's grouping-before-reduction order.
		{`SELECT SUM(nosuch1) FROM e GROUP BY nosuch2`, `engine: unknown column "nosuch2"`},
		{`SELECT -x FROM e`, `engine: cannot negate STRING`},
		{`SELECT COUNT(*), SUM(-x) FROM e`, `engine: cannot negate STRING`},
		{`SELECT n, SUM(-x) FROM e GROUP BY n`, `engine: cannot negate STRING`},
		{`SELECT SUM(*) FROM e`, `engine: SUM(*) is not valid`},
		{`SELECT COUNT(*) FROM e, e f WHERE e.n = f.n AND -f.x > 0`, `engine: cannot negate STRING`},
		{`SELECT COUNT(*) FROM e, e f, e g WHERE e.n = g.n AND f.n = g.n AND -g.x > 0`, `engine: cannot negate STRING`},
		{`SELECT COUNT(*) FROM e CROSS JOIN e f WHERE -f.x > 0`, `engine: cannot negate STRING`},
		{`SELECT COUNT(*) FROM e JOIN e f ON e.n < f.n AND -f.x > 0`, `engine: cannot negate STRING`},
		{`SELECT e.n FROM e LEFT JOIN e f ON e.n < f.n AND -f.x > 0`, `engine: cannot negate STRING`},
		{`SELECT COUNT(*) FROM e JOIN (e f JOIN e g ON f.n = g.n) ON e.n < f.n AND -g.x > 0`, `engine: cannot negate STRING`},
		{`SELECT COUNT(*) FROM e, e f WHERE n = 1`, `engine: ambiguous column "n"`},
		{`SELECT COUNT(*) FROM e, e f WHERE e.n = f.nosuch`, `engine: unknown column f.nosuch`},
		{`SELECT COUNT(*) FROM e JOIN e f ON e.n < f.nosuch`, `engine: unknown column f.nosuch`},
	}
	base := db.ExecConfig()
	defer db.SetExecConfig(base)
	for _, c := range cases {
		for _, workers := range []int{1, 2, 8} {
			for _, novec := range []bool{false, true} {
				cfg := base
				cfg.Parallelism = workers
				cfg.DisableVectorized = novec
				db.SetExecConfig(cfg)
				_, err := db.Query(c.sql)
				if err == nil {
					t.Fatalf("workers=%d novec=%v %s: expected error", workers, novec, c.sql)
				}
				if err.Error() != c.want {
					t.Fatalf("workers=%d novec=%v %s: error %q, want %q", workers, novec, c.sql, err, c.want)
				}
			}
		}
	}
}

// TestMorselSpans pins the partitioning arithmetic.
func TestMorselSpans(t *testing.T) {
	if got := morselSpans(0, 10); got != nil {
		t.Fatalf("empty input: %v", got)
	}
	spans := morselSpans(25, 10)
	want := []span{{0, 10}, {10, 20}, {20, 25}}
	if len(spans) != len(want) {
		t.Fatalf("spans %v", spans)
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("span %d: %v want %v", i, spans[i], want[i])
		}
	}
	if got := morselSpans(5, 0); len(got) != 1 || got[0].hi != 5 {
		t.Fatalf("default size: %v", got)
	}
}
