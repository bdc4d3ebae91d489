package flex

import (
	"context"
	"testing"

	"flexdp/internal/sqlparser"
)

// TestOneParseServesAnalysisAndExecution pins parse-once: the statement the
// engine executes is the very AST the analysis lowered — for a one-shot run,
// for a prepared query, for a prepared query whose state a metrics change
// rebuilt (the rebuild must not re-parse), and for a statement handed over
// by the caller.
func TestOneParseServesAnalysisAndExecution(t *testing.T) {
	sql := "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id"
	sys := newSystem(t, rideshareDB(t))
	executesAnalyzed := func(what string, st *preparedState) {
		t.Helper()
		if st.pq.Statement() != st.analysis.stmt {
			t.Fatalf("%s: the executed statement is not the analyzed one", what)
		}
	}

	// System.RunContext runs exactly this: a Prepared built on the spot.
	oneShot := &Prepared{sys: sys, sql: sql}
	if _, err := oneShot.run(context.Background(), Request{Epsilon: 1, Delta: 1e-6}); err != nil {
		t.Fatal(err)
	}
	executesAnalyzed("one-shot run", oneShot.st)

	prep, err := sys.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	st0 := prep.st
	executesAnalyzed("prepared", st0)
	sys.MarkPublic("cities")
	if _, err := prep.Run(1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if prep.st == st0 {
		t.Fatal("MarkPublic did not rebuild the prepared state")
	}
	executesAnalyzed("rebuilt", prep.st)
	if prep.st.analysis.stmt != st0.analysis.stmt {
		t.Fatal("the state rebuild re-parsed the query")
	}

	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	handed, err := sys.PrepareStmt(sql, stmt)
	if err != nil {
		t.Fatal(err)
	}
	if handed.st.analysis.stmt != stmt {
		t.Fatal("PrepareStmt re-parsed the statement it was handed")
	}
	executesAnalyzed("handed over", handed.st)
}
