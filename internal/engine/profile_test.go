package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"flexdp/internal/sqlparser"
)

// profTestDB builds a fact/dim pair large enough that a 512-byte memory
// budget forces both the join build and the grouped aggregation out of core.
func profTestDB(t *testing.T, factRows, dimRows int) *DB {
	t.Helper()
	db := NewDB()
	db.SetTempDir(t.TempDir())
	db.MustCreateTable("fact", []Column{
		{Name: "k", Type: KindInt},
		{Name: "v", Type: KindInt},
	})
	rows := make([][]Value, 0, factRows)
	for i := 0; i < factRows; i++ {
		rows = append(rows, []Value{NewInt(int64(i % dimRows)), NewInt(int64(i % 97))})
	}
	if err := db.InsertRows("fact", rows); err != nil {
		t.Fatal(err)
	}
	db.MustCreateTable("dim", []Column{
		{Name: "id", Type: KindInt},
		{Name: "name", Type: KindString},
	})
	rows = rows[:0]
	for i := 0; i < dimRows; i++ {
		rows = append(rows, []Value{NewInt(int64(i)), NewString(fmt.Sprintf("g%d", i%7))})
	}
	if err := db.InsertRows("dim", rows); err != nil {
		t.Fatal(err)
	}
	return db
}

const profJoinGroupBySQL = `SELECT dim.name, COUNT(*), SUM(fact.v) FROM fact JOIN dim ON fact.k = dim.id GROUP BY dim.name`

func opByName(p *QueryProfile, name string) *OpProfile {
	for i := range p.Operators {
		if p.Operators[i].Name == name {
			return &p.Operators[i]
		}
	}
	return nil
}

// TestQueryProfileMatchesSpillDelta is the tentpole acceptance check: a
// profiled join+group-by execution under a spill-forcing budget reports
// per-operator rows/morsels and a Spill block exactly equal to the delta the
// query folded into DB.SpillStats.
func TestQueryProfileMatchesSpillDelta(t *testing.T) {
	const factRows, dimRows = 2000, 200
	db := profTestDB(t, factRows, dimRows)
	stmt, err := sqlparser.Parse(profJoinGroupBySQL)
	if err != nil {
		t.Fatal(err)
	}

	cfg := db.ExecConfig()
	cfg.MemoryBudget = 512
	cfg.MorselSize = 256 // pin well below the table size: the trace must span morsels
	var prof QueryProfile
	cfg.Profile = &prof

	before := db.SpillStats()
	rs, err := db.ExecuteContextConfig(context.Background(), stmt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := db.SpillStats()
	delta := after.Delta(before)

	if !reflect.DeepEqual(prof.Spill, delta) {
		t.Errorf("profile spill = %+v\nSpillStats delta = %+v", prof.Spill, delta)
	}
	if prof.Spill.SpilledBytes == 0 || prof.Spill.JoinSpills == 0 || prof.Spill.AggSpills == 0 {
		t.Errorf("expected a spilled join+aggregation, got %+v", prof.Spill)
	}
	if prof.WallNanos <= 0 {
		t.Errorf("header fields wrong: %+v", prof)
	}

	scan := opByName(&prof, "scan")
	if scan == nil || scan.RowsOut != factRows {
		t.Fatalf("scan trace wrong: %+v", scan)
	}
	if scan.Detail != "fact" {
		t.Errorf("scan detail = %q, want fact", scan.Detail)
	}
	join := opByName(&prof, "grace_join")
	if join == nil {
		t.Fatalf("no grace_join trace in %+v", prof.Operators)
	}
	if join.RowsIn != factRows || join.RowsOut != factRows {
		t.Errorf("join rows in/out = %d/%d, want %d/%d", join.RowsIn, join.RowsOut, factRows, factRows)
	}
	if join.Morsels <= 1 || join.Morsels != scan.Morsels {
		t.Errorf("join morsels = %d (scan %d), want multi-morsel and equal", join.Morsels, scan.Morsels)
	}
	if join.SpillBytes == 0 {
		t.Errorf("grace join should attribute spill bytes")
	}
	agg := opByName(&prof, "aggregate_spill")
	if agg == nil || agg.RowsIn != factRows || agg.RowsOut != 7 {
		t.Fatalf("aggregate trace wrong: %+v", agg)
	}
	if len(rs.Rows) != 7 {
		t.Fatalf("query returned %d groups, want 7", len(rs.Rows))
	}
}

// TestBareScanProfileNamesSink: a bare scan (no WHERE, no join) streams its
// scan morsels into the same sinks as every other pipeline, so its profile
// lists the sink with every table row in and a scan that counted its morsels.
func TestBareScanProfileNamesSink(t *testing.T) {
	const rows = 500
	db := streamPeakDB(rows)
	for _, c := range []struct{ sql, sink string }{
		{`SELECT s, COUNT(*) FROM big GROUP BY s`, "aggregate"},
		{`SELECT COUNT(*), SUM(v), AVG(f) FROM big`, "aggregate"},
		{`SELECT v, f * 2.0 + 1.5 FROM big`, "project_vec"},
	} {
		stmt, err := sqlparser.Parse(c.sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			cfg := ExecConfig{Parallelism: workers, MorselSize: 64}
			var prof QueryProfile
			cfg.Profile = &prof
			if _, err := db.ExecuteContextConfig(context.Background(), stmt, cfg); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, c.sql, err)
			}
			if scan := opByName(&prof, "scan"); scan == nil || scan.Morsels <= 0 {
				t.Errorf("workers=%d %s: scan trace %+v, want morsels > 0", workers, c.sql, scan)
			}
			if sink := opByName(&prof, c.sink); sink == nil || sink.RowsIn != rows {
				t.Errorf("workers=%d %s: %s trace %+v, want rows_in=%d in %+v",
					workers, c.sql, c.sink, sink, rows, prof.Operators)
			}
		}
	}
}

// TestExplainAnalyzeRendersMeasuredProfile runs EXPLAIN ANALYZE through the
// SQL front end and checks the rendered numbers are the measured ones: the
// scan/join cardinalities of the actual data and the exact spilled-bytes
// delta the run folded into DB.SpillStats.
func TestExplainAnalyzeRendersMeasuredProfile(t *testing.T) {
	const factRows, dimRows = 2000, 200
	db := profTestDB(t, factRows, dimRows)
	db.SetMemoryBudget(512)

	before := db.SpillStats()
	rs, err := db.Query("EXPLAIN ANALYZE " + profJoinGroupBySQL)
	if err != nil {
		t.Fatal(err)
	}
	delta := db.SpillStats().Delta(before)

	if len(rs.Columns) != 1 || rs.Columns[0] != "QUERY PLAN" {
		t.Fatalf("columns = %v, want [QUERY PLAN]", rs.Columns)
	}
	var text strings.Builder
	for _, row := range rs.Rows {
		text.WriteString(row[0].Str)
		text.WriteString("\n")
	}
	out := text.String()
	for _, want := range []string{
		"vectorized=true wall_ms=",
		fmt.Sprintf("scan(fact): rows_in=0 rows_out=%d", factRows),
		"grace_join(build_rows=200/200 keep=2/4):", // nothing filtered; fact.v and dim.name survive
		fmt.Sprintf("rows_in=%d rows_out=%d", factRows, factRows),
		"aggregate_spill: ",
		fmt.Sprintf("spilled_bytes=%d", delta.SpilledBytes),
		fmt.Sprintf("join_spills=%d", delta.JoinSpills),
		fmt.Sprintf("agg_spills=%d", delta.AggSpills),
		fmt.Sprintf("breaker_materializations=%d", delta.BreakerMaterializations),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("EXPLAIN ANALYZE output missing %q:\n%s", want, out)
		}
	}
}

// TestProfilingPreservesResults is the differential guarantee for the new
// knob: profiling on must be bit-identical to profiling off at every worker
// count, with and without a spill-forcing budget.
func TestProfilingPreservesResults(t *testing.T) {
	db := profTestDB(t, 500, 50)
	queries := []string{
		profJoinGroupBySQL,
		`SELECT fact.v, dim.name FROM fact JOIN dim ON fact.k = dim.id WHERE fact.v % 3 = 0 ORDER BY fact.v, dim.name LIMIT 40`,
		`SELECT DISTINCT dim.name FROM fact JOIN dim ON fact.k = dim.id ORDER BY dim.name`,
		`SELECT COUNT(*), SUM(fact.v), AVG(fact.v) FROM fact WHERE fact.k <> 13`,
	}
	base := db.ExecConfig()
	for _, sql := range queries {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 8} {
			for _, budget := range []int64{0, 512} {
				cfg := base
				cfg.Parallelism = workers
				cfg.MemoryBudget = budget
				want, err := db.ExecuteContextConfig(context.Background(), stmt, cfg)
				if err != nil {
					t.Fatalf("unprofiled workers=%d budget=%d %s: %v", workers, budget, sql, err)
				}
				var prof QueryProfile
				cfg.Profile = &prof
				got, err := db.ExecuteContextConfig(context.Background(), stmt, cfg)
				if err != nil {
					t.Fatalf("profiled workers=%d budget=%d %s: %v", workers, budget, sql, err)
				}
				if diff := resultsEqualExact(want, got); diff != "" {
					t.Fatalf("profiled run differs (workers=%d budget=%d) %s: %s", workers, budget, sql, diff)
				}
				if len(prof.Operators) == 0 || prof.Workers != workers {
					t.Errorf("profile not filled (workers=%d) %s: %+v", workers, sql, prof)
				}
			}
		}
	}
}

// TestPreparedProfile exercises the prepared-statement override surface:
// ExecContextConfig fills a profile, plan caching intact across profiled and
// unprofiled executions.
func TestPreparedProfile(t *testing.T) {
	db := profTestDB(t, 300, 30)
	pq, err := db.Prepare(profJoinGroupBySQL)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pq.Exec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := db.ExecConfig()
	var prof QueryProfile
	cfg.Profile = &prof
	got, err := pq.ExecContextConfig(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if diff := resultsEqualExact(want, got); diff != "" {
		t.Fatalf("profiled prepared run differs: %s", diff)
	}
	// Under FLEX_TEST_MEMORY_BUDGET the same plan runs its out-of-core
	// operators, which trace under their spilled names.
	if opByName(&prof, "hash_join") == nil && opByName(&prof, "grace_join") == nil {
		t.Errorf("expected a hash_join or grace_join trace, got %+v", prof.Operators)
	}
	if opByName(&prof, "aggregate") == nil && opByName(&prof, "aggregate_spill") == nil {
		t.Errorf("expected an aggregate trace, got %+v", prof.Operators)
	}
}

// TestExplainAnalyzeFrontEndRules pins the statement's front-end contract:
// Prepare refuses it, bare EXPLAIN is a parse error, and the printer
// round-trips the prefix.
func TestExplainAnalyzeFrontEndRules(t *testing.T) {
	db := profTestDB(t, 10, 5)
	if _, err := db.Prepare("EXPLAIN ANALYZE SELECT COUNT(*) FROM fact"); err == nil {
		t.Errorf("Prepare should reject EXPLAIN ANALYZE")
	}
	if _, err := db.Query("EXPLAIN SELECT COUNT(*) FROM fact"); err == nil {
		t.Errorf("bare EXPLAIN should be a parse error")
	}
	stmt, err := sqlparser.Parse("EXPLAIN ANALYZE SELECT COUNT(*) FROM fact")
	if err != nil {
		t.Fatal(err)
	}
	if !stmt.Explain {
		t.Fatalf("Explain flag not set")
	}
	printed := sqlparser.Print(stmt)
	if !strings.HasPrefix(printed, "EXPLAIN ANALYZE ") {
		t.Errorf("Print dropped the prefix: %q", printed)
	}
	again, err := sqlparser.Parse(printed)
	if err != nil || !again.Explain {
		t.Errorf("round-trip failed: %v %+v", err, again)
	}
	// Execute (not just Query) also routes the diagnostic.
	rs, err := db.Execute(stmt)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Columns[0] != "QUERY PLAN" {
		t.Errorf("Execute on Explain stmt returned %v", rs.Columns)
	}
}
