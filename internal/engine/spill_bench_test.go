package engine

import (
	"fmt"
	"testing"
)

// Out-of-core micro-benchmarks, gate-covered (see Makefile): they pin the
// cost of the Grace partitioned join and the external merge sort under a
// budget small enough that every iteration spills. Serial execution keeps
// the numbers comparable across runner core counts.

// spillBenchDB is benchDB with a budget that forces the join build side
// (n/10 driver rows) and ORDER BY buffers (n trip rows) out of core.
func spillBenchDB(b *testing.B, n int, budget int64) *DB {
	b.Helper()
	db := benchDB(b, n)
	db.SetParallelism(1)
	db.SetTempDir(b.TempDir())
	db.SetMemoryBudget(budget)
	return db
}

// BenchmarkSpillJoin measures the Grace join end to end — partitioning both
// sides to disk, per-partition build/probe, order restoration — at 50k x 5k
// rows under a 64 KiB budget (the 5k-row build side estimates ~1 MiB).
func BenchmarkSpillJoin(b *testing.B) {
	db := spillBenchDB(b, 50000, 64<<10)
	benchQuery(b, db,
		`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id
		 WHERE t.city_id = d.home_city`)
	if st := db.SpillStats(); st.JoinSpills == 0 {
		b.Fatalf("benchmark never spilled: %+v", st)
	}
}

// BenchmarkSpillSort measures the external merge sort — run generation,
// multi-pass merge, payload decode — over 100k rows under a 256 KiB budget.
func BenchmarkSpillSort(b *testing.B) {
	db := spillBenchDB(b, 100000, 256<<10)
	benchQuery(b, db, `SELECT id, fare, status FROM trips ORDER BY fare DESC, id`)
	if st := db.SpillStats(); st.SortSpills == 0 {
		b.Fatalf("benchmark never spilled: %+v", st)
	}
}

// BenchmarkSpillAggregate measures the partitioned grouped aggregation —
// key-hash partitioning to disk, per-partition grouping and fold, group-
// order restoration — over 50k rows in 5k groups under a 256 KiB budget
// (single partitioning level: recursion is covered by tests, and the file
// churn it adds makes gate medians too noisy). Compare against
// BenchmarkGroupByAggregate for the in-memory cost of a similar shape.
func BenchmarkSpillAggregate(b *testing.B) {
	db := spillBenchDB(b, 50000, 256<<10)
	benchQuery(b, db,
		`SELECT driver_id, COUNT(*), SUM(fare), AVG(fare) FROM trips GROUP BY driver_id`)
	if st := db.SpillStats(); st.AggSpills == 0 {
		b.Fatalf("benchmark never spilled: %+v", st)
	}
}

// Two out-of-core shapes of the TPC-H counting queries, outside the gate
// (bench/baseline.txt predates them): run them with make bench-spill.

// BenchmarkWideRowAggSpill is TPC-H Q1's shape: COUNT(*) grouped on two
// low-cardinality string keys over a filtered 10-column table, spilled under
// a 256 KiB budget. The select list reads no input column, so the spilled
// records carry position and key values only.
func BenchmarkWideRowAggSpill(b *testing.B) {
	const n = 50000
	db := NewDB()
	cols := []Column{{Name: "returnflag", Type: KindString}, {Name: "linestatus", Type: KindString},
		{Name: "shipdate", Type: KindInt}}
	for i := 0; i < 7; i++ {
		cols = append(cols, Column{Name: fmt.Sprintf("c%d", i), Type: KindFloat})
	}
	db.MustCreateTable("lineitem", cols)
	flags, statuses := []string{"A", "N", "R"}, []string{"F", "O"}
	rows := make([][]Value, n)
	for i := range rows {
		row := []Value{NewString(flags[i%3]), NewString(statuses[i%2]), NewInt(int64(i % 2500))}
		for c := 0; c < 7; c++ {
			row = append(row, NewFloat(float64(i*(c+1)%1000)+0.25))
		}
		rows[i] = row
	}
	if err := db.InsertRows("lineitem", rows); err != nil {
		b.Fatal(err)
	}
	db.SetParallelism(1)
	db.SetTempDir(b.TempDir())
	db.SetMemoryBudget(256 << 10)
	benchQuery(b, db, `SELECT returnflag, linestatus, COUNT(*) FROM lineitem
		WHERE shipdate <= 2400 GROUP BY returnflag, linestatus`)
	if st := db.SpillStats(); st.AggSpills == 0 {
		b.Fatalf("benchmark never spilled: %+v", st)
	}
}

// BenchmarkManyMatchJoinSpill is TPC-H Q13's shape: a Grace join whose
// probe rows (5k drivers) each match ten build rows (50k trips), so the
// match buffer the partition leaves fill is ten times the probe side, under
// a 1 MiB budget.
func BenchmarkManyMatchJoinSpill(b *testing.B) {
	db := spillBenchDB(b, 50000, 1<<20)
	benchQuery(b, db,
		`SELECT COUNT(*) FROM drivers d JOIN trips t ON d.id = t.driver_id WHERE t.fare > 10`)
	if st := db.SpillStats(); st.JoinSpills == 0 {
		b.Fatalf("benchmark never spilled: %+v", st)
	}
}
