package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"flexdp/internal/metrics"
	"flexdp/internal/relalg"
	"flexdp/internal/sqlparser"
)

type mapCatalog map[string][]string

func (m mapCatalog) TableColumns(table string) ([]string, bool) {
	cols, ok := m[strings.ToLower(table)]
	return cols, ok
}

var cat = mapCatalog{
	"trips":   {"id", "driver_id", "city_id", "fare"},
	"drivers": {"id", "name"},
	"cities":  {"id", "name"},
	"edges":   {"source", "dest"},
	"t1":      {"a"},
	"t2":      {"b"},
}

func analyze(t *testing.T, sql string, m *metrics.Store) (*relalg.Query, *Analyzer) {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := relalg.Build(stmt, cat)
	if err != nil {
		t.Fatal(err)
	}
	return q, NewAnalyzer(m)
}

func baseMetrics() *metrics.Store {
	m := metrics.New()
	m.SetMF("trips", "id", 1)
	m.SetMF("trips", "driver_id", 20)
	m.SetMF("trips", "city_id", 500)
	m.SetMF("drivers", "id", 1)
	m.SetMF("cities", "id", 1)
	m.SetMF("edges", "source", 65)
	m.SetMF("edges", "dest", 65)
	m.SetMF("t1", "a", 3)
	m.SetMF("t2", "b", 7)
	m.SetVR("trips", "fare", 100)
	return m
}

func TestStabilityTableIsOne(t *testing.T) {
	q, a := analyze(t, "SELECT COUNT(*) FROM trips", baseMetrics())
	for k := 0; k <= 5; k++ {
		s, err := a.StabilityAt(q.Rel, k)
		if err != nil {
			t.Fatal(err)
		}
		if s != 1 {
			t.Errorf("stability(k=%d) = %g, want 1", k, s)
		}
	}
}

func TestSensitivityHistogramDoubles(t *testing.T) {
	q, a := analyze(t, "SELECT city_id, COUNT(*) FROM trips GROUP BY city_id", baseMetrics())
	ss, err := a.SensitivityAt(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != 2 {
		t.Errorf("histogram sensitivity = %g, want 2", ss[0])
	}
}

func TestStabilityNonSelfJoinUsesMax(t *testing.T) {
	// t1 ⋈ t2 on a=b with mf(a)=3, mf(b)=7:
	// Ŝ^(k) = max((3+k)·1, (7+k)·1) = 7+k.
	q, a := analyze(t, "SELECT COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.b", baseMetrics())
	for k := 0; k <= 10; k++ {
		s, err := a.StabilityAt(q.Rel, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(7 + k); s != want {
			t.Errorf("stability(k=%d) = %g, want %g", k, s, want)
		}
	}
}

func TestStabilitySelfJoin(t *testing.T) {
	// trips ⋈ trips on driver_id (mf = 20):
	// (20+k)·1 + (20+k)·1 + 1·1 = 41 + 2k.
	q, a := analyze(t,
		"SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id",
		baseMetrics())
	for k := 0; k <= 10; k++ {
		s, err := a.StabilityAt(q.Rel, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(41 + 2*k); s != want {
			t.Errorf("stability(k=%d) = %g, want %g", k, s, want)
		}
	}
}

// TestTriangleGolden reproduces the Section 3.4 worked example. The inner
// join's stability matches the paper exactly (131 + 2k with mf = 65). For
// the full query the paper's in-text walkthrough simplifies
// mf_k(dest, e1⋈e2) to mf_k(dest, edges); the Figure 1(c) definition
// multiplies through the join, giving
//
//	Ŝ^(k) = (65+k)² + (65+k)(131+2k) + (131+2k) = 3k² + 393k + 12871,
//
// which is what a faithful implementation of Figure 1 must produce.
func TestTriangleGolden(t *testing.T) {
	sql := `SELECT COUNT(*) FROM edges e1
		JOIN edges e2 ON e1.dest = e2.source AND e1.source < e2.source
		JOIN edges e3 ON e2.dest = e3.source AND e3.dest = e1.source AND e2.source < e3.source`
	q, a := analyze(t, sql, baseMetrics())

	// Inner join: 131 + 2k (matches the paper exactly).
	outer := q.Rel.(*relalg.JoinRel)
	inner := outer.Left
	for _, k := range []int{0, 1, 5, 19} {
		s, err := a.StabilityAt(inner, k)
		if err != nil {
			t.Fatal(err)
		}
		if want := float64(131 + 2*k); s != want {
			t.Errorf("inner stability(k=%d) = %g, want %g", k, s, want)
		}
	}

	// Full query: 3k² + 393k + 12871 per Figure 1.
	for _, k := range []int{0, 1, 2, 10, 19, 100} {
		ss, err := a.SensitivityAt(q, k)
		if err != nil {
			t.Fatal(err)
		}
		s := ss[0]
		kk := float64(k)
		if want := 3*kk*kk + 393*kk + 12871; s != want {
			t.Errorf("sensitivity(k=%d) = %g, want %g", k, s, want)
		}
	}

	// Symbolic polynomial agrees (self-join-only tree: exact, not a bound).
	polys, err := a.SensitivityPoly(q)
	if err != nil {
		t.Fatal(err)
	}
	want := Poly{12871, 393, 3}
	if len(polys[0]) != 3 {
		t.Fatalf("poly = %v", polys[0])
	}
	for i, c := range want {
		if math.Abs(polys[0][i]-c) > 1e-9 {
			t.Errorf("poly coeff %d = %g, want %g", i, polys[0][i], c)
		}
	}
}

func TestPublicTableOptimization(t *testing.T) {
	// Section 3.6: joining a private table with a public table bounds the
	// stability by mf of the public key, with no +k growth.
	m := baseMetrics()
	m.MarkPublic("cities")
	q, a := analyze(t,
		"SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id", m)
	for k := 0; k <= 5; k++ {
		s, err := a.StabilityAt(q.Rel, k)
		if err != nil {
			t.Fatal(err)
		}
		// max(mf_k(city_id, trips)·S(cities)=.. ·0, mf(cities.id)·S(trips))
		// = max(0, 1·1) = 1, independent of k.
		if s != 1 {
			t.Errorf("stability(k=%d) = %g, want 1", k, s)
		}
	}
}

func TestPublicTableWithRepeatedKeys(t *testing.T) {
	// A public table with repeated join keys still multiplies (the paper's
	// formulation: stability of T1 times mf of T2.B).
	m := baseMetrics()
	m.SetMF("cities", "id", 9)
	m.MarkPublic("cities")
	q, a := analyze(t,
		"SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id", m)
	s, err := a.StabilityAt(q.Rel, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s != 9 {
		t.Errorf("stability = %g, want 9 (no +k for public)", s)
	}
}

func TestAllPublicQueryHasZeroStability(t *testing.T) {
	m := baseMetrics()
	m.MarkPublic("cities")
	q, a := analyze(t, "SELECT COUNT(*) FROM cities", m)
	ss, err := a.SensitivityAt(q, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := ss[0]
	if s != 0 {
		t.Errorf("sensitivity = %g, want 0", s)
	}
}

func TestWithoutPublicOptimizationLarger(t *testing.T) {
	// Same join, no public marking: stability grows with k and is at least
	// as large (ablation direction of Figure 7).
	mPub := baseMetrics()
	mPub.MarkPublic("cities")
	mPriv := baseMetrics()
	sql := "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id"
	qPub, aPub := analyze(t, sql, mPub)
	qPriv, aPriv := analyze(t, sql, mPriv)
	for k := 0; k <= 10; k++ {
		sp, err := aPub.StabilityAt(qPub.Rel, k)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := aPriv.StabilityAt(qPriv.Rel, k)
		if err != nil {
			t.Fatal(err)
		}
		if sv < sp {
			t.Errorf("k=%d: private %g < public %g", k, sv, sp)
		}
	}
	sv, _ := aPriv.StabilityAt(qPriv.Rel, 0)
	// max(mf_k(city_id,trips)·1, mf_k(cities.id)·1) = max(500, 1) = 500.
	if sv != 500 {
		t.Errorf("private stability = %g, want 500", sv)
	}
}

func TestSumAvgScaledByValueRange(t *testing.T) {
	q, a := analyze(t, "SELECT SUM(fare), AVG(fare) FROM trips", baseMetrics())
	ss, err := a.SensitivityAt(q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != 100 || ss[1] != 100 { // vr(fare) = 100, stability 1
		t.Errorf("sensitivities = %v, want [100 100]", ss)
	}
	// At distance k the stability of a plain table is still 1.
	ss5, _ := a.SensitivityAt(q, 5)
	if ss5[0] != 100 {
		t.Errorf("SUM sensitivity at k=5 = %g, want 100", ss5[0])
	}
}

func TestMinMaxUseValueRangeDirectly(t *testing.T) {
	q, a := analyze(t,
		"SELECT MIN(a.fare), MAX(b.fare) FROM trips a JOIN trips b ON a.driver_id = b.driver_id",
		baseMetrics())
	ss, err := a.SensitivityAt(q, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Stability of the join is 41+2k but MIN/MAX ignore it: vr = 100.
	if ss[0] != 100 || ss[1] != 100 {
		t.Errorf("sensitivities = %v, want [100 100]", ss)
	}
}

func TestMissingMetricError(t *testing.T) {
	m := metrics.New() // empty: no mf for anything
	q, a := analyze(t, "SELECT COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.b", m)
	_, err := a.StabilityAt(q.Rel, 0)
	var me *MissingMetricError
	if !errors.As(err, &me) {
		t.Fatalf("error = %v, want MissingMetricError", err)
	}
	if me.Table != "t1" && me.Table != "t2" {
		t.Errorf("missing metric table = %q", me.Table)
	}
}

func TestNegativeDistanceRejected(t *testing.T) {
	q, a := analyze(t, "SELECT COUNT(*) FROM trips", baseMetrics())
	if _, err := a.StabilityAt(q.Rel, -1); err == nil {
		t.Error("expected error for negative k")
	}
}

func TestCountOverGroupedSubqueryDoubles(t *testing.T) {
	// Counting rows of a histogram subquery: stability 2·S(input) = 2.
	q, a := analyze(t, `SELECT COUNT(*) FROM
		(SELECT driver_id, COUNT(*) AS n FROM trips GROUP BY driver_id) s
		JOIN drivers d ON s.driver_id = d.id`, baseMetrics())
	s, err := a.StabilityAt(q.Rel, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Non-self join (trips vs drivers): max(mf_k(driver_id via CountRel)·S(drivers),
	// mf(drivers.id)·S(CountRel)) = max(20·0? ...) — drivers is private with
	// S=1, CountRel grouped has S=2: max(20·1, 1·2) = 20.
	if s != 20 {
		t.Errorf("stability = %g, want 20", s)
	}
}

func TestMfkThroughJoinMultiplies(t *testing.T) {
	// mf_k of an attribute of a joined relation multiplies by the other
	// side's key frequency (Figure 1c join case).
	sql := `SELECT COUNT(*) FROM trips x
		JOIN trips y ON x.driver_id = y.driver_id
		JOIN trips z ON y.city_id = z.city_id`
	q, a := analyze(t, sql, baseMetrics())
	outer := q.Rel.(*relalg.JoinRel)
	// Left key of the outer join is y.city_id inside (x ⋈ y):
	// mf_k = mf_k(city_id, y) · mf_k(driver_id, x) = (500+k)(20+k).
	got, err := a.MaxFreqAt(outer.LeftKey, outer.Left, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(502 * 22); got != want {
		t.Errorf("mf_k = %g, want %g", got, want)
	}
}

func TestStabilityMonotoneInK(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM trips",
		"SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
		"SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id",
		`SELECT COUNT(*) FROM edges e1
			JOIN edges e2 ON e1.dest = e2.source
			JOIN edges e3 ON e2.dest = e3.source`,
	}
	for _, sql := range queries {
		q, a := analyze(t, sql, baseMetrics())
		prev := -1.0
		for k := 0; k <= 50; k++ {
			ss, err := a.SensitivityAt(q, k)
			if err != nil {
				t.Fatal(err)
			}
			s := ss[0]
			if s < prev {
				t.Errorf("%q: sensitivity decreased at k=%d: %g < %g", sql, k, s, prev)
			}
			prev = s
		}
	}
}

func TestPolyMatchesPointwiseForSelfJoins(t *testing.T) {
	// For trees without the non-self-join max case, StabilityPoly is exact.
	sql := `SELECT COUNT(*) FROM edges e1
		JOIN edges e2 ON e1.dest = e2.source
		JOIN edges e3 ON e2.dest = e3.source`
	q, a := analyze(t, sql, baseMetrics())
	p, err := a.StabilityPoly(q.Rel)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k <= 30; k++ {
		s, err := a.StabilityAt(q.Rel, k)
		if err != nil {
			t.Fatal(err)
		}
		if got := p.Eval(float64(k)); math.Abs(got-s) > 1e-6*s {
			t.Errorf("poly(%d) = %g, pointwise = %g", k, got, s)
		}
	}
}

func TestPolyUpperBoundsPointwise(t *testing.T) {
	// With non-self joins the polynomial upper-bounds the pointwise value.
	queries := []string{
		"SELECT COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.b",
		"SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
		`SELECT COUNT(*) FROM trips t
			JOIN drivers d ON t.driver_id = d.id
			JOIN cities c ON t.city_id = c.id`,
	}
	for _, sql := range queries {
		q, a := analyze(t, sql, baseMetrics())
		p, err := a.StabilityPoly(q.Rel)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k <= 40; k++ {
			s, err := a.StabilityAt(q.Rel, k)
			if err != nil {
				t.Fatal(err)
			}
			if got := p.Eval(float64(k)); got+1e-9 < s {
				t.Errorf("%q: poly(%d) = %g < pointwise %g", sql, k, got, s)
			}
		}
	}
}

func TestPolyCoefficientsNonNegative(t *testing.T) {
	// Lemma 3: all coefficients non-negative.
	queries := []string{
		"SELECT COUNT(*) FROM trips",
		"SELECT COUNT(*) FROM t1 JOIN t2 ON t1.a = t2.b",
		"SELECT COUNT(*) FROM trips a JOIN trips b ON a.driver_id = b.driver_id",
		`SELECT COUNT(*) FROM edges e1
			JOIN edges e2 ON e1.dest = e2.source
			JOIN edges e3 ON e2.dest = e3.source`,
	}
	for _, sql := range queries {
		q, a := analyze(t, sql, baseMetrics())
		p, err := a.StabilityPoly(q.Rel)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range p {
			if c < 0 {
				t.Errorf("%q: coeff %d = %g < 0", sql, i, c)
			}
		}
	}
}

func TestPolyString(t *testing.T) {
	p := Poly{8711, 199, 2}
	if got := p.String(); got != "2k^2 + 199k + 8711" {
		t.Errorf("String = %q", got)
	}
	if got := (Poly{1}).String(); got != "1" {
		t.Errorf("constant String = %q", got)
	}
	if got := (Poly{}).String(); got != "0" {
		t.Errorf("zero String = %q", got)
	}
}

func TestPolyDegree(t *testing.T) {
	if (Poly{1, 0, 3}).Degree() != 2 {
		t.Error("degree")
	}
	if (Poly{5}).Degree() != 0 {
		t.Error("constant degree")
	}
	if (Poly{}).Degree() != -1 {
		t.Error("zero degree")
	}
	if (Poly{0, 0}).Degree() != -1 {
		t.Error("zero-coeff degree")
	}
}
