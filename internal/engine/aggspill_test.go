package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// wideAggDB holds a wide table w, whose spilled aggregation records narrow to
// the columns a statement reads, and a table z sharing w's column names k
// and a, for references that only resolve ambiguously.
func wideAggDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(16)
	db.MustCreateTable("w", []Column{
		{Name: "k", Type: KindInt}, {Name: "g", Type: KindString},
		{Name: "a", Type: KindInt}, {Name: "b", Type: KindFloat},
		{Name: "c", Type: KindString}, {Name: "d", Type: KindInt},
		{Name: "e", Type: KindString}, {Name: "f", Type: KindString},
	})
	db.MustCreateTable("z", []Column{{Name: "k", Type: KindInt}, {Name: "a", Type: KindInt}})
	rng := rand.New(rand.NewSource(48))
	rows := make([][]Value, 240)
	for i := range rows {
		b := Value(NewFloat(rng.Float64() * 100))
		if rng.Intn(10) == 0 {
			b = Null
		}
		rows[i] = []Value{
			NewInt(int64(rng.Intn(12))), NewString(fmt.Sprintf("g%d", rng.Intn(3))),
			NewInt(int64(rng.Intn(50))), b,
			NewString(fmt.Sprintf("c%d", rng.Intn(5))), NewInt(int64(rng.Intn(1000))),
			NewString(fmt.Sprintf("wide-payload-%04d", i)), NewString(fmt.Sprintf("another-wide-column-%04d", i)),
		}
	}
	if err := db.InsertRows("w", rows); err != nil {
		t.Fatal(err)
	}
	zrows := make([][]Value, 30)
	for i := range zrows {
		zrows[i] = []Value{NewInt(int64(i % 12)), NewInt(int64(i))}
	}
	if err := db.InsertRows("z", zrows); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestAggSpillNarrowRecords is the differential for narrowed aggregation
// records: each statement, spilled at a 512 B budget on workers {1, 2, 8},
// returns the rows, in the order, or the error text of the unbudgeted run.
// The statements read the key values only, bare non-grouped columns, columns
// in HAVING and ORDER BY, output names and positions, DISTINCT arguments,
// and references that do not resolve uniquely.
func TestAggSpillNarrowRecords(t *testing.T) {
	db := wideAggDB(t)
	for _, sql := range []string{
		`SELECT k, g, COUNT(*) FROM w GROUP BY k, g`,
		`SELECT k + 1, COUNT(*) FROM w GROUP BY k + 1`,
		`SELECT g, COUNT(*) FROM w GROUP BY 1`,
		`SELECT k, c, SUM(a) FROM w GROUP BY k`,
		`SELECT w.k, MAX(w.b), e FROM w GROUP BY w.k`,
		`SELECT k, SUM(a) FROM w GROUP BY k HAVING MAX(b) > 50 ORDER BY MIN(d), k`,
		`SELECT k, SUM(a) FROM w GROUP BY k HAVING c = 'c1' ORDER BY d DESC`,
		`SELECT k AS kk, SUM(a) AS total FROM w GROUP BY k ORDER BY TOTAL DESC, kk`,
		`SELECT k, SUM(d) AS a FROM w GROUP BY k ORDER BY a`,
		`SELECT g, AVG(b) FROM w GROUP BY g ORDER BY 2, 1`,
		`SELECT k, COUNT(DISTINCT c), COUNT(DISTINCT d) FROM w GROUP BY k`,
		`SELECT w.k, SUM(a) FROM w JOIN z ON w.k = z.k GROUP BY w.k`,
		`SELECT w.k, SUM(w.a) FROM w JOIN z ON w.k = z.k GROUP BY w.k ORDER BY a`,
		`SELECT k, SUM(nope) FROM w GROUP BY k`,
		`SELECT k, SUM(-c) FROM w GROUP BY k`,
	} {
		db.SetMemoryBudget(0)
		db.SetParallelism(1)
		want, wantErr := db.Query(sql)
		for _, workers := range []int{1, 2, 8} {
			db.SetMemoryBudget(512)
			db.SetParallelism(workers)
			before := db.SpillStats()
			got, err := db.Query(sql)
			label := fmt.Sprintf("workers=%d %s", workers, sql)
			switch {
			case wantErr != nil || err != nil:
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%s: error %v, unbudgeted %v", label, err, wantErr)
				}
			default:
				if diff := resultsEqualExact(want, got); diff != "" {
					t.Fatalf("%s: %s", label, diff)
				}
			}
			if st := db.SpillStats().Delta(before); st.AggSpills == 0 {
				t.Fatalf("%s: aggregation did not spill: %+v", label, st)
			}
		}
	}
	db.SetMemoryBudget(0)
	db.SetParallelism(0)
}

// TestAggSpillWritesReadColumnsOnly bounds the spilled bytes per record of a
// COUNT(*) grouped on one integer over the wide table: a record holds the
// input position, the key and an empty row — not the eight columns of the
// input row, none of which the select list reads.
func TestAggSpillWritesReadColumnsOnly(t *testing.T) {
	db := wideAggDB(t)
	sql := `SELECT k, COUNT(*) FROM w GROUP BY k`
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
		t.Fatal(diff)
	}
	st := db.SpillStats()
	if st.AggSpills == 0 || st.SpilledRecords == 0 {
		t.Fatalf("aggregation did not spill: %+v", st)
	}
	// Length prefix, position and key take at most 8 bytes; one column of
	// the input row alone takes 2 or more.
	if per := st.SpilledBytes / st.SpilledRecords; per > 9 {
		t.Fatalf("%d spilled bytes per record (%d bytes, %d records); want at most 9",
			per, st.SpilledBytes, st.SpilledRecords)
	}
	db.SetMemoryBudget(0)
}
