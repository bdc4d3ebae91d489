package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"testing"
)

// Differential tests for the streaming morsel dataflow: every query of the
// parallel corpus and of the fixture spill corpus must reproduce its recorded
// reference answer bit for bit at worker counts {1, 2, 8}, with and without
// vectorized kernels, with and without a tiny memory budget. A separate test
// pins the point of streaming: whole-query peak memory stays far below the
// source size for a fully-foldable scan → filter → aggregate pipeline, with
// zero pipeline-breaker materializations.

// streamedReferenceFile holds the reference answers. They were recorded by
// the materialize-between-operators executor, serial and unbudgeted, before
// that executor was removed; the engine no longer contains a second
// executor that could regenerate them.
const streamedReferenceFile = "testdata/streamed_reference.json"

// referenceAnswer is one recorded query answer: its column names, its row
// count, and the SHA-256 of its rows in the exact spill codec (AppendRow),
// which keeps every value's kind and float bit pattern.
type referenceAnswer struct {
	Corpus  string   `json:"corpus"`
	SQL     string   `json:"sql"`
	Columns []string `json:"columns"`
	Rows    int      `json:"rows"`
	SHA256  string   `json:"sha256"`
}

// answerOf summarizes a result set the way the reference file records it.
func answerOf(corpus, sql string, rs *ResultSet) referenceAnswer {
	h := sha256.New()
	var buf []byte
	for _, row := range rs.Rows {
		buf = AppendRow(buf[:0], row)
		h.Write(buf)
	}
	return referenceAnswer{Corpus: corpus, SQL: sql, Columns: rs.Columns,
		Rows: len(rs.Rows), SHA256: hex.EncodeToString(h.Sum(nil))}
}

// loadReference reads the recorded answers of one corpus, in corpus order.
func loadReference(t *testing.T, corpus string) []referenceAnswer {
	t.Helper()
	data, err := os.ReadFile(streamedReferenceFile)
	if err != nil {
		t.Fatal(err)
	}
	var all []referenceAnswer
	if err := json.Unmarshal(data, &all); err != nil {
		t.Fatalf("%s: %v", streamedReferenceFile, err)
	}
	var out []referenceAnswer
	for _, a := range all {
		if a.Corpus == corpus {
			out = append(out, a)
		}
	}
	if len(out) == 0 {
		t.Fatalf("%s: no answers recorded for corpus %q", streamedReferenceFile, corpus)
	}
	return out
}

// runStreamReference checks every recorded answer of one corpus against the
// streamed executor across the worker × budget × vectorized grid.
func runStreamReference(t *testing.T, db *DB, corpus string) {
	t.Helper()
	base := db.ExecConfig()
	defer db.SetExecConfig(base)
	for _, want := range loadReference(t, corpus) {
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []int64{0, 512} {
				for _, novec := range []bool{false, true} {
					cfg := base
					cfg.Parallelism = workers
					cfg.MemoryBudget = budget
					cfg.DisableVectorized = novec
					db.SetExecConfig(cfg)
					label := fmt.Sprintf("%s workers=%d budget=%d novec=%v %s",
						corpus, workers, budget, novec, want.SQL)
					rs, err := db.Query(want.SQL)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					got := answerOf(corpus, want.SQL, rs)
					if !slices.Equal(got.Columns, want.Columns) || got.Rows != want.Rows || got.SHA256 != want.SHA256 {
						t.Fatalf("%s:\ngot       %+v\nreference %+v", label, got, want)
					}
				}
			}
		}
	}
}

// streamReferenceDBs returns the databases the reference answers were
// recorded over, keyed by corpus: two randomized trials of the morsel-executor
// corpus (8-row morsels) and the fixture database (2-row morsels, so even
// the fixture spans many morsels).
func streamReferenceDBs(t *testing.T) map[string]*DB {
	dbs := make(map[string]*DB)
	rng := rand.New(rand.NewSource(977))
	for trial := 0; trial < 2; trial++ {
		db := parallelTestDB(rng, 80+rng.Intn(160))
		db.SetTempDir(t.TempDir())
		db.SetMorselSize(8)
		dbs[fmt.Sprintf("trial %d", trial)] = db
	}
	db := testDB(t)
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(2)
	dbs["fixture"] = db
	return dbs
}

// TestStreamedMatchesReference runs the morsel-executor corpus (joins
// including outer, grouped aggregation, DISTINCT, ORDER BY, set operations,
// subquery fallbacks) over two randomized databases, requiring every cell of
// the execution-config grid to reproduce the recorded answers bit for bit.
func TestStreamedMatchesReference(t *testing.T) {
	dbs := streamReferenceDBs(t)
	for _, corpus := range []string{"trial 0", "trial 1"} {
		runStreamReference(t, dbs[corpus], corpus)
	}
}

// TestStreamedMatchesReferenceFixture reruns the join/ORDER BY spill corpus
// on the fixture database: three tables, every join shape.
func TestStreamedMatchesReferenceFixture(t *testing.T) {
	runStreamReference(t, streamReferenceDBs(t)["fixture"], "fixture")
}

// streamPeakDB builds a single wide table big enough that holding it
// materialized between stages would dwarf any reasonable morsel window.
func streamPeakDB(rows int) *DB {
	db := NewDB()
	db.MustCreateTable("big", []Column{
		{Name: "v", Type: KindInt},
		{Name: "f", Type: KindFloat},
		{Name: "s", Type: KindString},
	})
	out := make([][]Value, 0, rows)
	for i := 0; i < rows; i++ {
		out = append(out, []Value{
			NewInt(int64(i % 997)),
			NewFloat(float64(i%251) * 1.5),
			NewString(fmt.Sprintf("row%d", i%13)),
		})
	}
	if err := db.InsertRows("big", out); err != nil {
		panic(err)
	}
	return db
}

// TestStreamingBoundsPeakMemory pins the whole-query memory claim: a scan →
// filter → ungrouped-aggregate query over a table far larger than the morsel
// window folds incrementally, so the peak in-flight morsel footprint stays a
// small fraction of the source relation and no stage materializes
// (BreakerMaterializations stays zero). The streamed result must still match,
// bit for bit, plain loops over the table in row order: the streaming fold
// accumulates in serial row order at every worker count.
func TestStreamingBoundsPeakMemory(t *testing.T) {
	const rows = 20000
	const sql = `SELECT COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM big WHERE v % 3 <> 0`

	var count, sumV, minV int64
	var sumF, maxF float64
	for _, row := range streamPeakDB(rows).Table("big").Rows {
		v, f := row[0].Int, row[1].Float
		if v%3 == 0 {
			continue
		}
		count++
		sumV += v
		sumF += f
		if count == 1 || v < minV {
			minV = v
		}
		if count == 1 || f > maxF {
			maxF = f
		}
	}
	want := &ResultSet{Columns: []string{"count", "sum", "avg", "min", "max"}, Rows: [][]Value{{
		NewInt(count), NewInt(sumV), NewFloat(sumF / float64(count)), NewInt(minV), NewFloat(maxF)}}}

	for _, workers := range []int{1, 2, 8} {
		// Fresh database per worker count: PeakMorselBytes folds into the
		// database totals by maximum, so reuse would blur the measurements.
		db := streamPeakDB(rows)
		db.SetParallelism(workers)
		db.SetMorselSize(64)
		total := estRowsBytes(db.Table("big").Rows)

		got, err := db.Query(sql)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if diff := resultsEqualExact(want, got); diff != "" {
			t.Fatalf("workers=%d streamed result diverged from the row-order loops: %s", workers, diff)
		}

		st := db.SpillStats()
		if st.BreakerMaterializations != 0 {
			t.Errorf("workers=%d: %d breaker materializations on a fully-foldable pipeline, want 0",
				workers, st.BreakerMaterializations)
		}
		if st.PeakMorselBytes <= 0 {
			t.Errorf("workers=%d: peak morsel bytes not recorded", workers)
		}
		// The bounded window admits at most workers × window morsels; with a
		// 64-row morsel over a 20000-row table that is a few percent of the
		// source. A quarter is a generous ceiling that still fails if any
		// stage silently materializes the stream.
		if st.PeakMorselBytes >= total/4 {
			t.Errorf("workers=%d: peak %d bytes in flight is not bounded (source ≈ %d bytes)",
				workers, st.PeakMorselBytes, total)
		}
	}
}

// TestBreakerMaterializationsCounted is the converse: pipeline-breaking
// shapes (grouped aggregation, join builds, DISTINCT) must report their
// materializations through the same stat, with or without operators between
// the scan and the sink. A bare ungrouped aggregate that folds every call
// holds O(1) state and breaks nothing.
func TestBreakerMaterializationsCounted(t *testing.T) {
	for _, c := range []struct {
		sql     string
		breaker bool
	}{
		{`SELECT s, COUNT(*) FROM big WHERE v > 10 GROUP BY s`, true},
		{`SELECT s, COUNT(*) FROM big GROUP BY s`, true},
		{`SELECT COUNT(*), SUM(v), AVG(f), MIN(v), MAX(f) FROM big`, false},
	} {
		db := streamPeakDB(500)
		db.SetMorselSize(16)
		if _, err := db.Query(c.sql); err != nil {
			t.Fatal(err)
		}
		n := db.SpillStats().BreakerMaterializations
		if c.breaker && n == 0 {
			t.Errorf("%s: reported no breaker materializations", c.sql)
		}
		if !c.breaker && n != 0 {
			t.Errorf("%s: reported %d breaker materializations, want 0", c.sql, n)
		}
	}
}

// joinShapesDB builds trips × drivers for the join-shape tests and benches:
// every trip's driver_id names exactly one driver, whose city cycles mod 7.
func joinShapesDB(trips, drivers int) *DB {
	db := NewDB()
	db.MustCreateTable("trips", []Column{
		{Name: "id", Type: KindInt},
		{Name: "driver_id", Type: KindInt},
		{Name: "fare", Type: KindFloat},
	})
	db.MustCreateTable("drivers", []Column{
		{Name: "id", Type: KindInt},
		{Name: "city", Type: KindInt},
		{Name: "name", Type: KindString},
	})
	tr := make([][]Value, trips)
	for i := range tr {
		tr[i] = []Value{NewInt(int64(i)), NewInt(int64(i % drivers)), NewFloat(float64(i%50) + 0.5)}
	}
	dr := make([][]Value, drivers)
	for i := range dr {
		dr[i] = []Value{NewInt(int64(i)), NewInt(int64(i % 7)), NewString(fmt.Sprintf("d%d", i))}
	}
	if err := db.InsertRows("trips", tr); err != nil {
		panic(err)
	}
	if err := db.InsertRows("drivers", dr); err != nil {
		panic(err)
	}
	return db
}

// TestJoinShapesStayBounded: under a 1 MiB budget, a comma join runs as the
// hash join its WHERE equality links, a theta join streams its pairs through
// the empty-key probe instead of materializing them, and a CROSS JOIN's
// 4.5 M pairs stream in probe morsels shrunk to about one span of output.
// Not parallel: it reads the process-wide allocation counter.
func TestJoinShapesStayBounded(t *testing.T) {
	const trips, drivers = 3000, 1500
	const maxAlloc = 16 << 20
	run := func(db *DB, sql string) (int64, uint64) {
		t.Helper()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := queryScalar(t, db, sql).Int
		runtime.ReadMemStats(&after)
		return got, after.TotalAlloc - before.TotalAlloc
	}
	db := joinShapesDB(trips, drivers)
	db.SetTempDir(t.TempDir())
	db.SetMemoryBudget(1 << 20)

	want, _ := run(db, `SELECT COUNT(*) FROM trips JOIN drivers ON trips.driver_id = drivers.id WHERE drivers.city = 3`)
	if want == 0 {
		t.Fatal("the JOIN spelling matched nothing")
	}
	got, alloc := run(db, `SELECT COUNT(*) FROM trips, drivers WHERE trips.driver_id = drivers.id AND drivers.city = 3`)
	if got != want || alloc >= maxAlloc {
		t.Errorf("comma join: %d rows (JOIN spelling %d), %d MiB allocated", got, want, alloc>>20)
	}
	t.Logf("comma join: %d KiB allocated", alloc>>10)
	got, alloc = run(db, `SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id <= d.id AND t.driver_id >= d.id`)
	if got != trips || alloc >= maxAlloc {
		t.Errorf("theta join: %d rows (want %d), %d MiB allocated", got, trips, alloc>>20)
	}
	t.Logf("theta join: %d KiB allocated", alloc>>10)

	// A fresh database: PeakMorselBytes folds into the totals by maximum.
	db = joinShapesDB(trips, drivers)
	db.SetMemoryBudget(1 << 20)
	if got, _ := run(db, `SELECT COUNT(*) FROM trips CROSS JOIN drivers`); got != trips*drivers {
		t.Errorf("cross join: %d rows, want %d", got, trips*drivers)
	}
	peak := db.SpillStats().PeakMorselBytes
	if peak > 1<<20 {
		t.Errorf("cross join: peak in-flight %d bytes, want ≤ 1 MiB", peak)
	}
	t.Logf("cross join: peak in-flight %d KiB", peak>>10)
}

// TestKeylessJoinNeverSpills: a join without an equality key probes one empty
// key, which no hash can partition, so it builds in memory under a budget its
// build side exceeds, where the keyed spelling of the same join goes to disk.
func TestKeylessJoinNeverSpills(t *testing.T) {
	db := joinShapesDB(300, 150)
	db.SetTempDir(t.TempDir())
	db.SetMemoryBudget(1 << 10)
	theta := queryScalar(t, db, `SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id <= d.id AND t.driver_id >= d.id`)
	if n := db.SpillStats().JoinSpills; n != 0 {
		t.Errorf("key-less join spilled %d times", n)
	}
	keyed := queryScalar(t, db, `SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id`)
	if n := db.SpillStats().JoinSpills; n == 0 {
		t.Error("keyed join did not spill: the budget does not bind")
	}
	if theta.Int != keyed.Int || keyed.Int != 300 {
		t.Errorf("theta join %d, keyed join %d, want 300", theta.Int, keyed.Int)
	}
}
