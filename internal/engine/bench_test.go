package engine

import (
	"fmt"
	"testing"
)

// Engine micro-benchmarks: these isolate the hot execution paths (filter,
// hash join, grouped aggregation) from the paper-figure benchmarks in the
// repository root, so engine-level regressions are visible on their own.
// See DESIGN.md's experiment index for the mapping from benchmarks to
// paper figures.

// benchDB builds a synthetic two-table database with n trip rows and n/10
// driver rows, mirroring the shape of the rideshare workload.
func benchDB(b *testing.B, n int) *DB {
	b.Helper()
	db := NewDB()
	db.MustCreateTable("trips", []Column{
		{Name: "id", Type: KindInt},
		{Name: "driver_id", Type: KindInt},
		{Name: "city_id", Type: KindInt},
		{Name: "fare", Type: KindFloat},
		{Name: "status", Type: KindString},
	})
	statuses := []string{"completed", "canceled", "requested"}
	trips := make([][]Value, n)
	for i := 0; i < n; i++ {
		trips[i] = []Value{
			NewInt(int64(i)),
			NewInt(int64(i % (n / 10))),
			NewInt(int64(i % 20)),
			NewFloat(float64(i%97) + 0.5),
			NewString(statuses[i%3]),
		}
	}
	if err := db.InsertRows("trips", trips); err != nil {
		b.Fatal(err)
	}
	db.MustCreateTable("drivers", []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
		{Name: "home_city", Type: KindInt},
	})
	drivers := make([][]Value, n/10)
	for i := 0; i < n/10; i++ {
		drivers[i] = []Value{
			NewInt(int64(i)),
			NewString(fmt.Sprintf("driver%d", i)),
			NewInt(int64(i % 20)),
		}
	}
	if err := db.InsertRows("drivers", drivers); err != nil {
		b.Fatal(err)
	}
	return db
}

func benchQuery(b *testing.B, db *DB, sql string) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWhereFilter measures the per-row predicate evaluation path: a
// compound WHERE over 100k rows with arithmetic, comparison, and string
// equality.
func BenchmarkWhereFilter(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db,
		`SELECT id, fare FROM trips
		 WHERE status = 'completed' AND fare > 10.0 AND city_id < 15 AND fare * 2 < 150`)
}

// BenchmarkHashJoin measures the equijoin build/probe path plus a residual
// predicate over the combined row, at 50k x 5k rows.
func BenchmarkHashJoin(b *testing.B) {
	db := benchDB(b, 50000)
	benchQuery(b, db,
		`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id
		 WHERE t.city_id = d.home_city`)
}

// BenchmarkGroupByAggregate measures group partitioning and aggregate-input
// evaluation: a keyed COUNT/SUM/AVG over 100k rows into 20 groups.
func BenchmarkGroupByAggregate(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db,
		`SELECT city_id, COUNT(*), SUM(fare), AVG(fare) FROM trips
		 WHERE status <> 'requested' GROUP BY city_id`)
}

// BenchmarkProjection measures scalar expression projection without
// aggregation over 100k rows.
func BenchmarkProjection(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db,
		`SELECT id, fare * 1.1 + 2.0, UPPER(status) FROM trips WHERE city_id < 10`)
}

// BenchmarkDistinct measures row keying/dedupe over 100k rows.
func BenchmarkDistinct(b *testing.B) {
	db := benchDB(b, 100000)
	benchQuery(b, db, `SELECT DISTINCT driver_id, city_id FROM trips`)
}

// BenchmarkBareScanAggregate measures aggregation over a bare scan (no
// WHERE, no join), whose scan morsels feed the aggregation sink directly:
// an ungrouped COUNT(*) and a COUNT(*) into 20 groups over 60k rows.
func BenchmarkBareScanAggregate(b *testing.B) {
	db := benchDB(b, 60000)
	for _, q := range []struct{ name, sql string }{
		{"count", `SELECT COUNT(*) FROM trips`},
		{"groupby", `SELECT city_id, COUNT(*) FROM trips GROUP BY city_id`},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			benchQuery(b, db, q.sql)
		})
	}
}

// BenchmarkJoinShapes measures the join shapes that have no equality key in
// their ON clause, 2,000 trips × 500 drivers: a comma join linked by its
// WHERE equality (a hash join), a CROSS JOIN (1 M pairs through the
// empty-key probe) and a theta join (every pair tested by the residual).
func BenchmarkJoinShapes(b *testing.B) {
	db := joinShapesDB(2000, 500)
	for _, q := range []struct{ name, sql string }{
		{"comma", `SELECT COUNT(*) FROM trips, drivers WHERE trips.driver_id = drivers.id AND drivers.city = 3`},
		{"cross", `SELECT COUNT(*) FROM trips CROSS JOIN drivers`},
		{"theta", `SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id <= d.id AND t.driver_id >= d.id`},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			benchQuery(b, db, q.sql)
		})
	}
}

// benchVector runs one query with the batch kernels off (scalar: the
// row-at-a-time closures) and on (vector), at one worker so the
// sub-benchmarks isolate batching itself from parallel speedup.
func benchVector(b *testing.B, db *DB, sql string) {
	b.Helper()
	defer db.SetVectorized(true)
	defer db.SetParallelism(0)
	db.SetParallelism(1)
	for _, mode := range []struct {
		name string
		on   bool
	}{{"scalar", false}, {"vector", true}} {
		b.Run(mode.name, func(b *testing.B) {
			db.SetVectorized(mode.on)
			benchQuery(b, db, sql)
		})
	}
}

// BenchmarkVectorFilter pits the vectorized WHERE (selection vectors, typed
// comparison/logical kernels) against the row-at-a-time closures on the
// compound predicate of BenchmarkWhereFilter.
func BenchmarkVectorFilter(b *testing.B) {
	db := benchDB(b, 100000)
	benchVector(b, db,
		`SELECT id, fare FROM trips
		 WHERE status = 'completed' AND fare > 10.0 AND city_id < 15 AND fare * 2 < 150`)
}

// BenchmarkVectorProject pits the vectorized projection (arithmetic kernels
// into output slabs) against the scalar path on an expression-heavy select
// list.
func BenchmarkVectorProject(b *testing.B) {
	db := benchDB(b, 100000)
	benchVector(b, db,
		`SELECT id, fare * 1.1 + 2.0, fare - 0.5, city_id * 2 FROM trips WHERE city_id < 10`)
}

// benchWorkers runs one query benchmark at several worker counts on the
// same database, restoring the default afterwards. workers=1 is the serial
// baseline the ≥2x-at-4-workers acceptance target compares against (the
// speedup materializes on multi-core hardware; on a single-core runner the
// sub-benchmarks document the scheduling overhead instead).
func benchWorkers(b *testing.B, db *DB, sql string) {
	b.Helper()
	defer db.SetParallelism(0)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			db.SetParallelism(workers)
			benchQuery(b, db, sql)
		})
	}
}

// BenchmarkParallelScan measures the morsel-parallel WHERE filter +
// projection over 400k rows.
func BenchmarkParallelScan(b *testing.B) {
	db := benchDB(b, 400000)
	benchWorkers(b, db,
		`SELECT id, fare * 1.1 FROM trips
		 WHERE status = 'completed' AND fare > 10.0 AND city_id < 15 AND fare * 2 < 150`)
}

// BenchmarkParallelAggregate measures morsel-parallel partial aggregation
// with a deterministic merge: keyed COUNT/SUM/AVG/MIN/MAX over 400k rows
// into 20 groups.
func BenchmarkParallelAggregate(b *testing.B) {
	db := benchDB(b, 400000)
	benchWorkers(b, db,
		`SELECT city_id, COUNT(*), SUM(fare), AVG(fare), MIN(fare), MAX(fare) FROM trips
		 WHERE status <> 'requested' GROUP BY city_id`)
}

// BenchmarkParallelJoin measures the morsel-parallel hash-join probe with a
// residual predicate at 200k x 20k rows.
func BenchmarkParallelJoin(b *testing.B) {
	db := benchDB(b, 200000)
	benchWorkers(b, db,
		`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id
		 WHERE t.city_id = d.home_city`)
}

// joinTemplatesDB mirrors the rideshare tables the three Table-2 join
// templates read, at the benchmark's scale: 66k trips over 1.2k drivers, 40
// cities and 90 days, and 3k user tags.
func joinTemplatesDB(b *testing.B) *DB {
	b.Helper()
	db := NewDB()
	db.MustCreateTable("trips", []Column{
		{Name: "id", Type: KindInt}, {Name: "driver_id", Type: KindInt},
		{Name: "rider_id", Type: KindInt}, {Name: "city_id", Type: KindInt},
		{Name: "day", Type: KindInt}, {Name: "fare", Type: KindFloat},
		{Name: "product", Type: KindString}, {Name: "status", Type: KindString},
	})
	db.MustCreateTable("drivers", []Column{
		{Name: "id", Type: KindInt}, {Name: "home_city", Type: KindInt},
		{Name: "signup_day", Type: KindInt}, {Name: "active", Type: KindBool},
	})
	db.MustCreateTable("cities", []Column{
		{Name: "id", Type: KindInt}, {Name: "name", Type: KindString}, {Name: "region", Type: KindString},
	})
	db.MustCreateTable("user_tags", []Column{
		{Name: "user_id", Type: KindInt}, {Name: "day", Type: KindInt}, {Name: "tag", Type: KindString},
	})
	fill := func(table string, n int, row func(i int) []Value) {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := db.InsertRows(table, rows); err != nil {
			b.Fatal(err)
		}
	}
	regions := []string{"na", "emea", "apac", "latam"}
	fill("trips", 66000, func(i int) []Value {
		return []Value{NewInt(int64(i)), NewInt(int64(i % 1200)), NewInt(int64(i % 5000)),
			NewInt(int64(1 + i%40)), NewInt(int64(i % 90)), NewFloat(float64(i%97) + 0.5),
			NewString([]string{"x", "pool", "black"}[i%3]), NewString("completed")}
	})
	fill("drivers", 1200, func(i int) []Value {
		return []Value{NewInt(int64(i)), NewInt(int64(1 + i%40)), NewInt(int64(i % 90)), NewBool(i%5 != 0)}
	})
	fill("cities", 40, func(i int) []Value {
		return []Value{NewInt(int64(1 + i)), NewString(fmt.Sprintf("city%d", i)), NewString(regions[i%4])}
	})
	fill("user_tags", 3000, func(i int) []Value {
		return []Value{NewInt(int64(i % 1000)), NewInt(int64(i % 90)), NewString("tag")}
	})
	return db
}

// BenchmarkJoinTemplates runs the three join templates of the Table-2 corpus
// (workload/expcorpus.go): each has a single-side WHERE the planner pushes
// below the join and a COUNT(*) that reads no join output column.
func BenchmarkJoinTemplates(b *testing.B) {
	db := joinTemplatesDB(b)
	for _, q := range []struct{ name, sql string }{
		{"active_drivers", "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE d.active = TRUE AND t.day >= 20"},
		{"region", "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id WHERE c.region = 'emea'"},
		{"many_to_many", "SELECT COUNT(*) FROM trips t JOIN user_tags g ON t.day = g.day WHERE t.city_id = 7"},
	} {
		b.Run(q.name, func(b *testing.B) {
			b.ReportAllocs()
			benchQuery(b, db, q.sql)
		})
	}
}
