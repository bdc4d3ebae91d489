package engine

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// Differential tests for the out-of-core execution paths: every join and
// ORDER BY query must return bit-identical results whether it runs fully in
// memory or is forced through the spill subsystem (Grace partitioned join,
// external merge sort) by a tiny memory budget, at worker counts {1, 2, 8}.

// spillQueries is the join/ORDER BY corpus drawn from engine_test.go's
// fixture queries, adapted to the testDB tables (trips, drivers, cities).
var spillQueries = []string{
	// Joins (engine_test.go join coverage).
	`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id`,
	`SELECT COUNT(*) FROM trips t JOIN drivers d ON d.id = t.driver_id`,
	`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id AND t.fare > 10`,
	`SELECT d.name, t.id FROM drivers d LEFT JOIN trips t ON d.id = t.driver_id`,
	`SELECT t.id, d.name FROM trips t RIGHT JOIN drivers d ON t.driver_id = d.id`,
	`SELECT * FROM trips t FULL JOIN drivers d ON t.driver_id = d.id`,
	`SELECT COUNT(*) FROM drivers CROSS JOIN cities`,
	`SELECT COUNT(*) FROM drivers, cities`,
	`SELECT COUNT(*) FROM trips JOIN drivers USING (id)`,
	`SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id AND a.id < b.id`,
	`SELECT COUNT(*) FROM trips t
		JOIN drivers d ON t.driver_id = d.id
		JOIN cities c ON t.city_id = c.id`,
	`WITH a AS (SELECT COUNT(*) FROM trips),
		b AS (SELECT COUNT(*) FROM drivers)
		SELECT COUNT(*) FROM a JOIN b ON a.count < b.count`,
	// ORDER BY (engine_test.go ordering coverage).
	`SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id ORDER BY driver_id`,
	`SELECT id FROM trips ORDER BY fare DESC`,
	`SELECT driver_id, COUNT(*) AS n FROM trips GROUP BY driver_id ORDER BY n DESC, driver_id`,
	`SELECT COUNT(driver_id) FROM trips GROUP BY driver_id ORDER BY count DESC LIMIT 1`,
	`SELECT id FROM trips ORDER BY id LIMIT 2 OFFSET 1`,
	`SELECT city_id * 10, COUNT(*) FROM trips GROUP BY city_id * 10 ORDER BY 1`,
	// Join + ORDER BY combined.
	`SELECT d.name, SUM(t.fare) FROM trips t JOIN drivers d ON t.driver_id = d.id
		GROUP BY d.name ORDER BY 2 DESC, d.name`,
	`SELECT t.id, t.fare FROM trips t JOIN drivers d ON t.driver_id = d.id
		ORDER BY t.fare DESC, t.id`,
	// Grouped aggregation, DISTINCT, and set operations (PR 5): their hash
	// state goes out-of-core through the shared partitioner.
	`SELECT driver_id, SUM(fare) FROM trips GROUP BY driver_id HAVING COUNT(*) > 1 ORDER BY driver_id`,
	`SELECT city_id, COUNT(DISTINCT driver_id) FROM trips GROUP BY city_id ORDER BY city_id`,
	`SELECT DISTINCT driver_id, city_id FROM trips`,
	`SELECT DISTINCT city_id, fare FROM trips ORDER BY fare DESC, city_id`,
	`SELECT driver_id FROM trips UNION SELECT id FROM drivers`,
	`SELECT city_id FROM trips INTERSECT ALL SELECT id FROM cities`,
	`SELECT city_id FROM trips EXCEPT ALL SELECT id FROM cities`,
	`SELECT city_id FROM trips INTERSECT SELECT id FROM cities`,
	`SELECT id FROM cities EXCEPT SELECT city_id FROM trips`,
	// Comma joins of three items (linked in and out of WHERE order, partly
	// linked, unlinked), an integral-float = int link, CTE and derived-table
	// items, CROSS with single-side conjuncts, key-less joins of every kind,
	// parenthesized build sides, and a key-less join with a subquery residual.
	`SELECT t.id, d.name, c.name FROM trips t, drivers d, cities c WHERE t.driver_id = d.id AND t.city_id = c.id`,
	`SELECT t.id, d.name, c.name FROM trips t, drivers d, cities c WHERE t.city_id = c.id AND t.driver_id = d.id AND c.name <> 'la'`,
	`SELECT t.id, d.name, c.name FROM trips t, drivers d, cities c WHERE d.home_city = c.id AND t.fare > 20`,
	`SELECT t.id, d.id, c.id FROM trips t, drivers d, cities c WHERE t.fare > 20`,
	`SELECT a.id, b.id FROM trips a, trips b WHERE a.fare = b.id`,
	`WITH n AS (SELECT driver_id, COUNT(*) AS c FROM trips GROUP BY driver_id) SELECT d.name, n.c FROM drivers d, n WHERE d.id = n.driver_id`,
	`SELECT d.name, x.id FROM drivers d, (SELECT id, driver_id FROM trips WHERE fare > 10) x WHERE d.id = x.driver_id`,
	`SELECT d.name, c.name FROM drivers d CROSS JOIN cities c WHERE d.home_city > 1 AND c.id < 3`,
	`SELECT t.id, d.name FROM trips t JOIN drivers d ON t.driver_id < d.id AND d.home_city = 1`,
	`SELECT d.name, c.name FROM drivers d LEFT JOIN cities c ON d.home_city < c.id`,
	`SELECT d.name, c.name FROM drivers d RIGHT JOIN cities c ON d.home_city > c.id`,
	`SELECT d.name, c.name FROM drivers d FULL JOIN cities c ON d.home_city > c.id AND d.id > 11`,
	`SELECT t.id, d.name, c.name FROM trips t JOIN (drivers d JOIN cities c ON d.home_city = c.id) ON t.driver_id = d.id`,
	`SELECT t.id, d.name, c.name FROM trips t LEFT JOIN (drivers d JOIN cities c ON d.home_city = c.id) ON t.driver_id = d.id AND c.id = 2`,
	`SELECT d.name, c.name FROM drivers d JOIN cities c ON d.home_city < c.id AND c.id > (SELECT MIN(id) FROM cities)`,
}

// runSpillDifferential checks one database: every query bit-identical
// between the unbounded run and the budget-forced run at several worker
// counts.
func runSpillDifferential(t *testing.T, db *DB, queries []string, budget int64, label string) {
	t.Helper()
	for _, sql := range queries {
		db.SetMemoryBudget(0)
		db.SetParallelism(1)
		want, err := db.Query(sql)
		if err != nil {
			t.Fatalf("%s in-memory %s: %v", label, sql, err)
		}
		for _, workers := range []int{1, 2, 8} {
			db.SetMemoryBudget(budget)
			db.SetParallelism(workers)
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("%s budget=%d workers=%d %s: %v", label, budget, workers, sql, err)
			}
			if diff := resultsEqualExact(want, got); diff != "" {
				t.Fatalf("%s budget=%d workers=%d %s: %s", label, budget, workers, sql, diff)
			}
		}
	}
	db.SetMemoryBudget(0)
	db.SetParallelism(0)
}

// TestSpillMatchesInMemory runs the engine_test join/ORDER BY corpus with a
// budget small enough that every join build and sort buffer exceeds it.
func TestSpillMatchesInMemory(t *testing.T) {
	db := testDB(t)
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(2)
	runSpillDifferential(t, db, spillQueries, 64, "fixture")
}

// TestSpillMatchesInMemoryRandomized reruns the morsel-executor corpus
// (joins, aggregates, set ops, subqueries) over randomized databases with
// spilling forced, composing the out-of-core paths with parallel probes and
// partial aggregation.
func TestSpillMatchesInMemoryRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(271))
	for trial := 0; trial < 4; trial++ {
		db := parallelTestDB(rng, 80+rng.Intn(160))
		db.SetTempDir(t.TempDir())
		db.SetMorselSize(8)
		runSpillDifferential(t, db, parallelQueries, 512, fmt.Sprintf("trial %d", trial))
	}
}

// TestSpillPreparedMatchesInMemory flips the budget under a prepared query:
// cached plans must keep producing identical results as executions move
// between the in-memory and out-of-core paths.
func TestSpillPreparedMatchesInMemory(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	db := parallelTestDB(rng, 200)
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(8)
	queries := []string{
		`SELECT t.k, COUNT(*) FROM t JOIN u ON t.k = u.k GROUP BY t.k ORDER BY t.k`,
		`SELECT k, v, f FROM t WHERE v > 10 ORDER BY f DESC, k, v`,
		`SELECT COUNT(*) FROM t LEFT JOIN u ON t.k = u.k`,
	}
	for _, sql := range queries {
		pq, err := db.Prepare(sql)
		if err != nil {
			t.Fatalf("prepare %s: %v", sql, err)
		}
		db.SetMemoryBudget(0)
		want, err := pq.Exec()
		if err != nil {
			t.Fatalf("in-memory %s: %v", sql, err)
		}
		for _, budget := range []int64{256, 2048} {
			db.SetMemoryBudget(budget)
			got, err := pq.Exec()
			if err != nil {
				t.Fatalf("budget=%d %s: %v", budget, sql, err)
			}
			if diff := resultsEqualExact(want, got); diff != "" {
				t.Fatalf("budget=%d %s: %s", budget, sql, diff)
			}
		}
	}
	db.SetMemoryBudget(0)
}

// TestSpillIsObservable pins the acceptance criterion: a join whose build
// side exceeds the budget completes by spilling — visible in the metrics —
// with results identical to the unbounded run, and ORDER BY over more than
// the budget does the same through the external sort.
func TestSpillIsObservable(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	db := parallelTestDB(rng, 400)
	db.SetTempDir(t.TempDir())

	joinSQL := `SELECT t.k, u.w FROM t JOIN u ON t.k = u.k`
	sortSQL := `SELECT k, v, f, s FROM t ORDER BY f DESC, v, k`

	db.SetMemoryBudget(0)
	wantJoin, err := db.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	wantSort, err := db.Query(sortSQL)
	if err != nil {
		t.Fatal(err)
	}
	if st := db.SpillStats(); st.JoinSpills != 0 || st.SortSpills != 0 {
		t.Fatalf("unbounded run spilled: %+v", st)
	}

	db.SetMemoryBudget(1024)
	gotJoin, err := db.Query(joinSQL)
	if err != nil {
		t.Fatal(err)
	}
	st := db.SpillStats()
	if st.JoinSpills == 0 || st.JoinPartitions == 0 {
		t.Fatalf("join did not spill: %+v", st)
	}
	if st.SpilledBytes == 0 || st.Files == 0 {
		t.Fatalf("no spill IO recorded: %+v", st)
	}
	if diff := resultsEqualExact(wantJoin, gotJoin); diff != "" {
		t.Fatalf("spilled join differs: %s", diff)
	}

	gotSort, err := db.Query(sortSQL)
	if err != nil {
		t.Fatal(err)
	}
	st = db.SpillStats()
	if st.SortSpills == 0 || st.SortRuns < 2 {
		t.Fatalf("sort did not spill: %+v", st)
	}
	if diff := resultsEqualExact(wantSort, gotSort); diff != "" {
		t.Fatalf("spilled sort differs: %s", diff)
	}
	db.SetMemoryBudget(0)
}

// TestAggSpillIsObservable pins the PR 5 acceptance criterion: a GROUP BY
// whose state exceeds the budget completes by spilling — visible in the
// metrics — with results bit-identical to the unbudgeted path at workers
// {1, 2, 8}; DISTINCT and set-operation key state spill the same way.
func TestAggSpillIsObservable(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	db := parallelTestDB(rng, 400)
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(8)

	aggSQL := `SELECT k, COUNT(*), SUM(v), SUM(f), MIN(f), MAX(v) FROM t GROUP BY k ORDER BY k`
	distinctSQL := `SELECT DISTINCT k, s FROM t`
	setOpSQL := `SELECT v FROM t INTERSECT ALL SELECT w FROM u`

	db.SetMemoryBudget(0)
	db.SetParallelism(1)
	wants := map[string]*ResultSet{}
	for _, sql := range []string{aggSQL, distinctSQL, setOpSQL} {
		rs, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		wants[sql] = rs
	}
	if st := db.SpillStats(); st.AggSpills != 0 || st.DistinctSpills != 0 || st.SetOpSpills != 0 {
		t.Fatalf("unbounded run spilled: %+v", st)
	}

	db.SetMemoryBudget(1024)
	for _, workers := range []int{1, 2, 8} {
		db.SetParallelism(workers)
		for sql, want := range wants {
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, sql, err)
			}
			if diff := resultsEqualExact(want, got); diff != "" {
				t.Fatalf("workers=%d %s: %s", workers, sql, diff)
			}
		}
	}
	st := db.SpillStats()
	if st.AggSpills == 0 || st.AggPartitions == 0 {
		t.Fatalf("aggregation did not spill: %+v", st)
	}
	if st.DistinctSpills == 0 || st.SetOpSpills == 0 || st.DedupePartitions == 0 {
		t.Fatalf("DISTINCT/set-op state did not spill: %+v", st)
	}
	if st.SpilledBytes == 0 || st.Files == 0 {
		t.Fatalf("no spill IO recorded: %+v", st)
	}
	db.SetMemoryBudget(0)
	db.SetParallelism(0)
}

// TestAggSpillSkew forces the irreducible-skew path of the partitioned
// aggregation: every row shares one group key, so re-partitioning cannot
// shrink the partition and it must be aggregated in memory over budget —
// counted in the stats — while still agreeing with the unbounded run. A
// second, high-cardinality query checks the recursive re-partitioning
// counter on the other side of the skew spectrum.
func TestAggSpillSkew(t *testing.T) {
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.MustCreateTable("g", []Column{{Name: "k", Type: KindInt}, {Name: "v", Type: KindInt}})
	rows := make([][]Value, 300)
	for i := range rows {
		rows[i] = []Value{NewInt(7), NewInt(int64(i))}
	}
	if err := db.InsertRows("g", rows); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT k, COUNT(*), SUM(v), MIN(v) FROM g GROUP BY k`
	db.SetMemoryBudget(0)
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMemoryBudget(64)
	got, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if diff := resultsEqualExact(want, got); diff != "" {
		t.Fatalf("skewed spilled aggregation differs: %s", diff)
	}
	st := db.SpillStats()
	if st.AggSpills == 0 {
		t.Fatalf("skewed aggregation did not spill: %+v", st)
	}
	if st.OverBudgetAggs == 0 {
		t.Fatalf("irreducible skew not recorded: %+v", st)
	}

	// High cardinality: every row its own group; partitions stay over
	// budget after the first split and must re-partition.
	db.MustCreateTable("h", []Column{{Name: "k", Type: KindInt}})
	hrows := make([][]Value, 300)
	for i := range hrows {
		hrows[i] = []Value{NewInt(int64(i))}
	}
	if err := db.InsertRows("h", hrows); err != nil {
		t.Fatal(err)
	}
	db.SetMemoryBudget(0)
	want, err = db.Query(`SELECT k, COUNT(*) FROM h GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMemoryBudget(64)
	got, err = db.Query(`SELECT k, COUNT(*) FROM h GROUP BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if diff := resultsEqualExact(want, got); diff != "" {
		t.Fatalf("high-cardinality spilled aggregation differs: %s", diff)
	}
	if st := db.SpillStats(); st.AggRecursions == 0 {
		t.Fatalf("high-cardinality aggregation never re-partitioned: %+v", st)
	}
	db.SetMemoryBudget(0)
}

// TestGraceJoinSkewRecursion forces the irreducible-skew path: every build
// row shares one join key, so re-partitioning cannot shrink the partition
// and the join must fall back to an over-budget in-memory build — counted
// in the stats — while still agreeing with the unbounded run.
func TestGraceJoinSkewRecursion(t *testing.T) {
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.MustCreateTable("l", []Column{{Name: "k", Type: KindInt}, {Name: "v", Type: KindInt}})
	db.MustCreateTable("r", []Column{{Name: "k", Type: KindInt}, {Name: "w", Type: KindInt}})
	lrows := make([][]Value, 40)
	for i := range lrows {
		lrows[i] = []Value{NewInt(7), NewInt(int64(i))}
	}
	rrows := make([][]Value, 60)
	for i := range rrows {
		rrows[i] = []Value{NewInt(7), NewInt(int64(100 + i))}
	}
	if err := db.InsertRows("l", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("r", rrows); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT l.v, r.w FROM l JOIN r ON l.k = r.k`
	db.SetMemoryBudget(0)
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMemoryBudget(64)
	got, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if diff := resultsEqualExact(want, got); diff != "" {
		t.Fatalf("skewed spill join differs: %s", diff)
	}
	st := db.SpillStats()
	if st.JoinSpills == 0 {
		t.Fatalf("skewed join did not spill: %+v", st)
	}
	if st.OverBudgetBuilds == 0 {
		t.Fatalf("irreducible skew not recorded: %+v", st)
	}
	if len(got.Rows) != 40*60 {
		t.Fatalf("join produced %d rows, want %d", len(got.Rows), 40*60)
	}
	db.SetMemoryBudget(0)
}

// TestDedupeSetOpSpillRecursion pins the recursive re-partitioning of the
// spilled DISTINCT and INTERSECT/EXCEPT key state. Half of a's rows and a
// third of b's share one key (irreducible skew: that partition stops
// shrinking and is processed in memory over budget); the rest are distinct
// (those partitions stay over budget after the first split and must
// re-partition). Every query must
// recurse, and must return the rows, in the order, of the unbudgeted run.
func TestDedupeSetOpSpillRecursion(t *testing.T) {
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(16)
	db.MustCreateTable("a", []Column{{Name: "k", Type: KindInt}, {Name: "s", Type: KindString}})
	db.MustCreateTable("b", []Column{{Name: "k", Type: KindInt}})
	arows := make([][]Value, 80)
	for i := range arows {
		k := int64(i)
		if i%2 == 0 {
			k = 7
		}
		arows[i] = []Value{NewInt(k), NewString(fmt.Sprintf("s%d", k%50))}
	}
	brows := make([][]Value, 60)
	for i := range brows {
		k := int64(2 * i)
		if i%3 == 0 {
			k = 7
		}
		brows[i] = []Value{NewInt(k)}
	}
	if err := db.InsertRows("a", arows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("b", brows); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT DISTINCT k, s FROM a`,
		`SELECT DISTINCT s FROM a ORDER BY s DESC`,
		`SELECT k FROM a INTERSECT SELECT k FROM b`,
		`SELECT k FROM a INTERSECT ALL SELECT k FROM b`,
		`SELECT k FROM a EXCEPT SELECT k FROM b`,
		`SELECT k FROM a EXCEPT ALL SELECT k FROM b`,
		`SELECT k FROM b EXCEPT ALL SELECT k FROM a`,
	} {
		db.SetMemoryBudget(0)
		db.SetParallelism(1)
		want, err := db.Query(sql)
		if err != nil {
			t.Fatalf("in-memory %s: %v", sql, err)
		}
		for _, workers := range []int{1, 2, 8} {
			db.SetMemoryBudget(64)
			db.SetParallelism(workers)
			before := db.SpillStats()
			got, err := db.Query(sql)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, sql, err)
			}
			if diff := resultsEqualExact(want, got); diff != "" {
				t.Fatalf("workers=%d %s: %s", workers, sql, diff)
			}
			if st := db.SpillStats().Delta(before); st.DedupeRecursions == 0 {
				t.Fatalf("workers=%d %s: spilled key state never re-partitioned: %+v", workers, sql, st)
			}
		}
	}
	db.SetMemoryBudget(0)
	db.SetParallelism(0)
}

// TestExternalSortStability checks the stable-sort contract on heavy
// duplicate keys: equal-key rows must keep input order through the runs and
// merges.
func TestExternalSortStability(t *testing.T) {
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.MustCreateTable("d", []Column{{Name: "grp", Type: KindInt}, {Name: "seq", Type: KindInt}})
	rows := make([][]Value, 500)
	for i := range rows {
		rows[i] = []Value{NewInt(int64(i % 3)), NewInt(int64(i))}
	}
	if err := db.InsertRows("d", rows); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT grp, seq FROM d ORDER BY grp`
	db.SetMemoryBudget(0)
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.SetMemoryBudget(512)
	got, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if diff := resultsEqualExact(want, got); diff != "" {
		t.Fatalf("external sort broke stability: %s", diff)
	}
	if st := db.SpillStats(); st.SortSpills == 0 {
		t.Fatalf("sort did not spill: %+v", st)
	}
	// Within each grp, seq must ascend (input order).
	last := map[int64]int64{}
	for _, r := range got.Rows {
		g, s := r[0].Int, r[1].Int
		if prev, ok := last[g]; ok && s < prev {
			t.Fatalf("grp %d: seq %d after %d", g, s, prev)
		}
		last[g] = s
	}
	db.SetMemoryBudget(0)
}

// TestGraceJoinResidualErrorOrder pins error determinism across the memory
// budget: when several matching pairs fail residual evaluation, the Grace
// join must surface the error of the serial-first pair — the minimum
// (left, build) position — not whichever partition happens to be processed
// first. The failing value's kind is embedded in the message, so mixing
// STRING and BOOL operands makes any ordering drift visible.
func TestGraceJoinResidualErrorOrder(t *testing.T) {
	const budget, nKeys, perKey = int64(64), 12, 4

	// Build the u side first so the level-0 partition of every key can be
	// computed exactly as the Grace join will: the serial-first failing pair is
	// then deliberately given the key living in the HIGHEST-numbered
	// partition, so any implementation that surfaces the first error in
	// partition-scan order reports a different (BOOL) operand kind.
	urows := make([][]Value, 0, nKeys*perKey)
	uextra := func(k int, str bool) Value {
		if str {
			return NewString(fmt.Sprintf("x%d", k))
		}
		return NewBool(true)
	}
	for k := 0; k < nKeys; k++ {
		for j := 0; j < perKey; j++ {
			urows = append(urows, []Value{NewInt(int64(k)), uextra(k, false)})
		}
	}
	build := make([]idxRow, len(urows))
	for i, r := range urows {
		build[i] = idxRow{idx: i, row: r}
	}
	fanout := graceFanout(estIdxRowsBytes(build), budget)
	partOf := func(k int) int {
		kb := AppendRowKey(nil, []Value{NewInt(int64(k))})
		return int(graceHash(kb, 0) % uint64(fanout))
	}
	kFirst, pMin := 0, partOf(0)
	for k := 1; k < nKeys; k++ {
		if p := partOf(k); p > partOf(kFirst) {
			kFirst = k
		} else if p < pMin {
			pMin = p
		}
	}
	if partOf(kFirst) == pMin {
		t.Fatalf("all %d keys hash to one of %d partitions; test cannot discriminate", nKeys, fanout)
	}
	// kFirst's pairs fail with a STRING operand, everything else with BOOL.
	for i, r := range urows {
		if r[0].Int == int64(kFirst) {
			urows[i][1] = uextra(kFirst, true)
		}
	}

	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.MustCreateTable("t", []Column{{Name: "k", Type: KindInt}, {Name: "v", Type: KindInt}})
	db.MustCreateTable("u", []Column{{Name: "k", Type: KindInt}, {Name: "extra", Type: KindString}})
	// t's first row carries kFirst, so the serial-first failing pair is the
	// STRING one; later rows cover the other keys.
	trows := make([][]Value, 60)
	for i := range trows {
		trows[i] = []Value{NewInt(int64((kFirst + i) % nKeys)), NewInt(int64(i))}
	}
	if err := db.InsertRows("t", trows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("u", urows); err != nil {
		t.Fatal(err)
	}

	sql := `SELECT COUNT(*) FROM t JOIN u ON t.k = u.k AND t.v + u.extra > 0`
	db.SetMemoryBudget(0)
	_, serialErr := db.Query(sql)
	if serialErr == nil {
		t.Fatal("expected residual evaluation error")
	}
	if !strings.Contains(serialErr.Error(), "STRING") {
		t.Fatalf("serial error %q should involve the STRING pair", serialErr)
	}
	db.SetMemoryBudget(budget)
	_, err := db.Query(sql)
	if err == nil {
		t.Fatal("expected error under budget")
	}
	if err.Error() != serialErr.Error() {
		t.Fatalf("budget=%d: error %q differs from in-memory %q", budget, err, serialErr)
	}
	if st := db.SpillStats(); st.JoinSpills == 0 {
		t.Fatalf("error-order test never spilled: %+v", st)
	}
	db.SetMemoryBudget(0)
}

// TestExternalSortNaNKeys pins the NaN regression: Compare is not
// transitive over NaN (it returns 0 against any number), so a sort driven
// by it directly would be algorithm-defined and the runs-plus-merge path
// would disagree with the single stable sort. compareOrd totalizes the
// order (NaN first among numerics), and both paths must produce the same
// rows — bit-identical — with NaN keys mixed in.
func TestExternalSortNaNKeys(t *testing.T) {
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.MustCreateTable("f", []Column{{Name: "id", Type: KindInt}, {Name: "x", Type: KindFloat}})
	rows := make([][]Value, 300)
	for i := range rows {
		x := NewFloat(float64((i * 37) % 101))
		if i%7 == 0 {
			x = NewFloat(math.NaN())
		}
		rows[i] = []Value{NewInt(int64(i)), x}
	}
	if err := db.InsertRows("f", rows); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		`SELECT id, x FROM f ORDER BY x`,
		`SELECT id, x FROM f ORDER BY x DESC, id`,
	} {
		db.SetMemoryBudget(0)
		want, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		db.SetMemoryBudget(512)
		got, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if diff := resultsEqualExact(want, got); diff != "" {
			t.Fatalf("%s: NaN keys broke spill determinism: %s", sql, diff)
		}
	}
	if st := db.SpillStats(); st.SortSpills == 0 {
		t.Fatalf("NaN test never spilled: %+v", st)
	}
	db.SetMemoryBudget(0)
}

// TestCompareOrdTotalOrder property-checks the ORDER BY comparator over
// values including NaN, ±Inf, -0.0, and cross-kind pairs: antisymmetry and
// transitivity are exactly what Compare lacks with NaN and what the
// external sort's correctness rests on.
func TestCompareOrdTotalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for i := 0; i < 20000; i++ {
		a, b, c := randCodecValue(rng), randCodecValue(rng), randCodecValue(rng)
		if compareOrd(a, b) != -compareOrd(b, a) {
			t.Fatalf("antisymmetry: %v vs %v", a, b)
		}
		if compareOrd(a, a) != 0 {
			t.Fatalf("reflexivity: %v", a)
		}
		if compareOrd(a, b) <= 0 && compareOrd(b, c) <= 0 && compareOrd(a, c) > 0 {
			t.Fatalf("transitivity: %v <= %v <= %v but %v > %v", a, b, c, a, c)
		}
	}
}

// TestSpillTempFileHygiene runs spilling queries — successful and failing —
// and requires the temp directory to be empty afterwards.
func TestSpillTempFileHygiene(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(41))
	db := parallelTestDB(rng, 300)
	db.SetTempDir(dir)
	db.SetMemoryBudget(512)
	db.SetMorselSize(8)

	for _, sql := range []string{
		`SELECT t.k, u.w FROM t JOIN u ON t.k = u.k`,
		`SELECT k, v, f, s FROM t ORDER BY f DESC, v, k, s`,
		`SELECT k, COUNT(DISTINCT v) FROM t GROUP BY k HAVING SUM(v) > 10`,
		`SELECT DISTINCT k, s FROM t`,
		`SELECT v FROM t INTERSECT ALL SELECT w FROM u`,
	} {
		if _, err := db.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Error paths: a failing residual mid-join, a failing ORDER BY key, and
	// a failing aggregate argument must also leave nothing behind.
	for _, sql := range []string{
		`SELECT COUNT(*) FROM t JOIN u ON t.k = u.k AND -u.name > 0`,
		`SELECT k FROM t ORDER BY -s`,
		`SELECT k, SUM(-s) FROM t GROUP BY k`,
	} {
		if _, err := db.Query(sql); err == nil {
			t.Fatalf("%s: expected error", sql)
		}
	}
	if st := db.SpillStats(); st.Files == 0 {
		t.Fatalf("hygiene test never spilled: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("%d leftover spill files: %v", len(entries), names)
	}
	db.SetMemoryBudget(0)
}

// TestBuildJoinIndexParallelMatchesSerial compares the sharded parallel
// build against the serial build: every key must map to the same ascending
// posting list.
func TestBuildJoinIndexParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	rows := make([][]Value, 1000)
	for i := range rows {
		k := Value(NewInt(int64(rng.Intn(50))))
		if rng.Intn(25) == 0 {
			k = Null
		}
		rows[i] = []Value{k, NewString(fmt.Sprintf("s%d", rng.Intn(10)))}
	}
	keys := []equiKey{{leftIdx: 0, rightIdx: 0}, {leftIdx: 1, rightIdx: 1}}

	serialCtx := &execContext{workers: 1, morsel: 16}
	serial, err := serialCtx.buildJoinIndex(keys, rows)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.shards) != 1 {
		t.Fatalf("serial build produced %d shards", len(serial.shards))
	}
	for _, workers := range []int{2, 4, 8} {
		parCtx := &execContext{workers: workers, morsel: 16}
		par, err := parCtx.buildJoinIndex(keys, rows)
		if err != nil {
			t.Fatal(err)
		}
		if par.size() != serial.size() {
			t.Fatalf("workers=%d: %d keys vs %d", workers, par.size(), serial.size())
		}
		for key, want := range serial.shards[0] {
			got := par.lookup([]byte(key))
			if len(got) != len(want) {
				t.Fatalf("workers=%d key %q: %d postings vs %d", workers, key, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d key %q posting %d: %d vs %d", workers, key, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMemoryBudgetEnvDefault pins the CI low-memory knob: a DB created with
// FLEX_TEST_MEMORY_BUDGET set starts with that budget.
func TestMemoryBudgetEnvDefault(t *testing.T) {
	t.Setenv(MemoryBudgetEnv, "64KiB")
	db := NewDB()
	if got := db.MemoryBudget(); got != 64<<10 {
		t.Fatalf("env default budget = %d, want %d", got, 64<<10)
	}
	t.Setenv(MemoryBudgetEnv, "not-a-size")
	db = NewDB()
	if got := db.MemoryBudget(); got != 0 {
		t.Fatalf("bad env value should be ignored, got %d", got)
	}
}
