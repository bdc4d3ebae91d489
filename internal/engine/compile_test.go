package engine

import (
	"strings"
	"testing"
)

// TestQualifiedAmbiguousColumn locks in the index-map fix: a qualified
// reference that matches two columns (duplicate alias) must report an
// ambiguity instead of silently binding to the first match, exactly like
// the unqualified case.
func TestQualifiedAmbiguousColumn(t *testing.T) {
	db := testDB(t)
	_, err := db.Query("SELECT t.id FROM trips t, drivers t")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguous column error, got %v", err)
	}
}

// TestUnaliasedDerivedTable guards the index map against self-collision:
// columns of an unaliased subquery have an empty qualifier, so their
// qualified and unqualified lookup keys coincide and must register as one
// entry, not as an ambiguity.
func TestUnaliasedDerivedTable(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT fare FROM (SELECT fare FROM trips) WHERE fare > 20")
	if err != nil {
		t.Fatalf("unaliased derived table: %v", err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("rows = %d, want 2", len(rs.Rows))
	}
}

// TestCompiledShortCircuitDefersErrors verifies the compiled evaluators keep
// lazy error semantics: an unresolvable column in a branch that short-circuit
// evaluation never reaches must not fail the query.
func TestCompiledShortCircuitDefersErrors(t *testing.T) {
	db := testDB(t)

	// AND short-circuits on a false left operand before touching the
	// unknown column.
	rs, err := db.Query("SELECT COUNT(*) FROM trips WHERE 1 = 2 AND no_such_col = 3")
	if err != nil {
		t.Fatalf("short-circuited unknown column should not error: %v", err)
	}
	if v := rs.Rows[0][0]; v.Int != 0 {
		t.Errorf("count = %d, want 0", v.Int)
	}

	// An untaken CASE branch with an unsupported function never evaluates.
	rs, err = db.Query("SELECT CASE WHEN 1 = 1 THEN 7 ELSE NO_SUCH_FUNC(id) END FROM trips")
	if err != nil {
		t.Fatalf("untaken CASE branch should not error: %v", err)
	}
	if v := rs.Rows[0][0]; v.Int != 7 {
		t.Errorf("case result = %v, want 7", v)
	}

	// A reachable unknown column must still error.
	if _, err := db.Query("SELECT COUNT(*) FROM trips WHERE no_such_col = 3"); err == nil {
		t.Fatal("reachable unknown column must error")
	}
}

// TestCompiledSubqueryMemoization checks that memoizing uncorrelated
// subqueries does not change results.
func TestCompiledSubqueryMemoization(t *testing.T) {
	db := testDB(t)
	rs, err := db.Query("SELECT COUNT(*) FROM trips WHERE fare > (SELECT AVG(fare) FROM trips)")
	if err != nil {
		t.Fatal(err)
	}
	// Fares: 12.5, 8, 30, 5, 22 → avg 15.5 → two rows above.
	if v := rs.Rows[0][0]; v.Int != 2 {
		t.Errorf("count = %d, want 2", v.Int)
	}

	rs, err = db.Query("SELECT COUNT(*) FROM trips WHERE driver_id IN (SELECT id FROM drivers WHERE home_city = 1)")
	if err != nil {
		t.Fatal(err)
	}
	// Drivers 10 and 12 are in city 1; trips 1, 2, 4 reference them.
	if v := rs.Rows[0][0]; v.Int != 3 {
		t.Errorf("count = %d, want 3", v.Int)
	}
}
