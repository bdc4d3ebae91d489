package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGraceEmitMatches pins the merge of the Grace leaves' match runs: the
// matches come out ascending by probe index, a probe row's matches in their
// run order, in morsels of at most the chunk size, whatever runs are empty
// and however the runs interleave.
func TestGraceEmitMatches(t *testing.T) {
	// runs lists each leaf's matches as (probe index, tag) pairs; the tag
	// stands for the build row.
	type match struct{ li, tag int }
	cases := []struct {
		name string
		runs [][]match
	}{
		{"no runs", nil},
		{"empty runs only", [][]match{{}, {}, {}}},
		{"single run", [][]match{{{0, 0}, {0, 1}, {2, 2}, {5, 3}}}},
		{"empty runs between", [][]match{{}, {{3, 0}, {3, 1}}, {}, {{1, 2}}, {}}},
		{"interleaved", [][]match{
			{{0, 0}, {0, 1}, {3, 2}, {7, 3}, {7, 4}, {7, 5}},
			{{1, 6}, {2, 7}, {2, 8}, {8, 9}},
			{{4, 10}},
			{{5, 11}, {6, 12}, {9, 13}, {9, 14}},
		}},
	}
	for _, c := range cases {
		for _, chunk := range []int{1, 2, 3, 64} {
			st := &graceState{}
			var want []int
			for _, run := range c.runs {
				for _, m := range run {
					st.out = append(st.out, graceRow{li: m.li, row: []Value{NewInt(int64(m.li)), NewInt(int64(m.tag))}})
				}
				st.runEnds = append(st.runEnds, len(st.out))
			}
			for li := 0; li < 10; li++ {
				for _, run := range c.runs {
					for _, m := range run {
						if m.li == li {
							want = append(want, m.tag)
						}
					}
				}
			}
			var got []int
			err := st.emitMatches(&execContext{workers: 1, morsel: 8}, chunk, func(m morsel) error {
				if len(m.rows) == 0 || len(m.rows) > chunk {
					return fmt.Errorf("morsel of %d rows, chunk %d", len(m.rows), chunk)
				}
				for _, r := range m.rows {
					got = append(got, int(r[1].Int))
				}
				return nil
			})
			label := fmt.Sprintf("%s chunk=%d", c.name, chunk)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: emitted %v, want %v", label, got, want)
			}
		}
	}
}

// TestGraceJoinManyToManyRecursion runs a many-to-many LEFT JOIN with a
// residual at a 512 B budget, where the Grace join's partitions recurse:
// every worker count must return the rows, in the order, of the unbudgeted
// join.
func TestGraceJoinManyToManyRecursion(t *testing.T) {
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.SetMorselSize(16)
	db.MustCreateTable("l", []Column{{Name: "k", Type: KindInt}, {Name: "v", Type: KindInt}})
	db.MustCreateTable("r", []Column{{Name: "k", Type: KindInt}, {Name: "w", Type: KindInt}})
	rng := rand.New(rand.NewSource(48))
	lrows := make([][]Value, 200)
	for i := range lrows {
		lrows[i] = []Value{NewInt(int64(rng.Intn(25))), NewInt(int64(rng.Intn(100)))}
	}
	rrows := make([][]Value, 150)
	for i := range rrows {
		rrows[i] = []Value{NewInt(int64(rng.Intn(30))), NewInt(int64(rng.Intn(100)))}
	}
	if err := db.InsertRows("l", lrows); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRows("r", rrows); err != nil {
		t.Fatal(err)
	}
	sql := `SELECT l.k, l.v, r.w FROM l LEFT JOIN r ON l.k = r.k AND l.v < r.w`
	db.SetParallelism(1)
	want, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) <= len(lrows) {
		t.Fatalf("%d rows from %d probe rows: the join is not many-to-many", len(want.Rows), len(lrows))
	}
	for _, workers := range []int{1, 2, 8} {
		db.SetMemoryBudget(512)
		db.SetParallelism(workers)
		before := db.SpillStats()
		got, err := db.Query(sql)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if diff := resultsEqualExact(want, got); diff != "" {
			t.Fatalf("workers=%d: %s", workers, diff)
		}
		if st := db.SpillStats().Delta(before); st.JoinRecursions == 0 {
			t.Fatalf("workers=%d: the Grace join never recursed: %+v", workers, st)
		}
	}
	db.SetMemoryBudget(0)
	db.SetParallelism(0)
}
