package flex

import (
	"math"
	"strings"
	"testing"

	"flexdp/internal/smooth"
)

func rideshareDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	if err := db.CreateTable("trips",
		Col{"id", TypeInt}, Col{"driver_id", TypeInt},
		Col{"city_id", TypeInt}, Col{"fare", TypeFloat}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("drivers",
		Col{"id", TypeInt}, Col{"name", TypeString}, Col{"home_city", TypeInt}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("cities",
		Col{"id", TypeInt}, Col{"name", TypeString}); err != nil {
		t.Fatal(err)
	}
	trips := [][]any{
		{1, 10, 1, 12.5}, {2, 10, 1, 8.0}, {3, 11, 2, 30.0},
		{4, 12, 1, 5.0}, {5, 11, 2, 22.0}, {6, 10, 2, 14.0},
	}
	for _, r := range trips {
		if err := db.Insert("trips", r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]any{{10, "ann", 1}, {11, "bob", 2}, {12, "cid", 1}} {
		if err := db.Insert("drivers", r...); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][]any{{1, "sf"}, {2, "nyc"}, {3, "la"}} {
		if err := db.Insert("cities", r...); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func newSystem(t *testing.T, db *Database) *System {
	t.Helper()
	sys := NewSystem(db, Options{Seed: 42})
	sys.CollectMetrics()
	return sys
}

func TestRunSimpleCount(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	res, err := sys.Run("SELECT COUNT(*) FROM trips", 10, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Rows[0].Values) != 1 {
		t.Fatalf("shape = %dx%d", len(res.Rows), len(res.Rows[0].Values))
	}
	if res.TrueRows[0][0] != 6 {
		t.Errorf("true count = %g, want 6", res.TrueRows[0][0])
	}
	// ε = 10 on a count of sensitivity ~1: noise scale is tiny; the noisy
	// answer should be within a loose band of the truth.
	if math.Abs(res.Rows[0].Values[0]-6) > 25 {
		t.Errorf("noisy count %g implausibly far from 6", res.Rows[0].Values[0])
	}
}

func TestRunCountWithJoin(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	res, err := sys.Run(
		"SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id", 1.0, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueRows[0][0] != 6 {
		t.Errorf("true join count = %g, want 6", res.TrueRows[0][0])
	}
	if res.Analysis.Joins != 1 {
		t.Errorf("joins = %d, want 1", res.Analysis.Joins)
	}
}

func TestRunHistogramEnumerated(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	sys.SetBinDomain("trips", "city_id", []any{1, 2, 3})
	res, err := sys.Run(
		"SELECT city_id, COUNT(*) FROM trips GROUP BY city_id", 5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BinsEnumerated {
		t.Fatal("bins should be enumerated from the registered domain")
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (domain size, incl. empty bin)", len(res.Rows))
	}
	// The empty city 3 must appear, zero-filled before noising.
	var foundEmpty bool
	for i, r := range res.Rows {
		if r.Bins[0] == any(3) {
			foundEmpty = true
			if res.TrueRows[i][0] != 0 {
				t.Errorf("empty bin true count = %g, want 0", res.TrueRows[i][0])
			}
		}
	}
	if !foundEmpty {
		t.Error("domain bin 3 missing from enumerated output")
	}
}

func TestRunHistogramFallback(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	res, err := sys.Run(
		"SELECT city_id, COUNT(*) FROM trips GROUP BY city_id", 5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.BinsEnumerated {
		t.Error("no domain registered; bins must not claim enumeration")
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d, want 2 observed bins", len(res.Rows))
	}
}

func TestRunHistogramColumnOrderPreserved(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	res, err := sys.Run(
		"SELECT COUNT(*) AS n, city_id FROM trips GROUP BY city_id", 5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	// Bin labels always precede aggregates in the private result.
	if res.Columns[0] != "city_id" || res.Columns[1] != "n" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestMultiColumnBinEnumeration(t *testing.T) {
	db := rideshareDB(t)
	sys := NewSystem(db, Options{Seed: 2})
	sys.CollectMetrics()
	sys.SetBinDomain("trips", "city_id", []any{1, 2, 3})
	sys.SetBinDomain("trips", "driver_id", []any{10, 11})
	res, err := sys.Run(
		"SELECT city_id, driver_id, COUNT(*) FROM trips GROUP BY city_id, driver_id",
		5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if !res.BinsEnumerated {
		t.Fatal("both domains registered: bins must enumerate")
	}
	if len(res.Rows) != 6 { // 3 cities × 2 drivers
		t.Fatalf("rows = %d, want 6 (cartesian product)", len(res.Rows))
	}
	// Missing one domain falls back to observed bins.
	sys2 := NewSystem(db, Options{Seed: 2})
	sys2.CollectMetrics()
	sys2.SetBinDomain("trips", "city_id", []any{1, 2, 3})
	res2, err := sys2.Run(
		"SELECT city_id, driver_id, COUNT(*) FROM trips GROUP BY city_id, driver_id",
		5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res2.BinsEnumerated {
		t.Error("partial domains must not claim enumeration")
	}
}

func TestRunWithBins(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	// Analyst supplies bin labels explicitly (paper fallback): the output
	// has exactly those bins, zero-filled where the data has none.
	res, err := sys.RunWithBins(
		"SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id", 5, 1e-6,
		[]any{10, 11, 12, 13, 14})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 supplied bins", len(res.Rows))
	}
	if !res.BinsEnumerated {
		t.Error("analyst bins should count as enumerated output shape")
	}
	zeroBins := 0
	for i := range res.Rows {
		if res.TrueRows[i][0] == 0 {
			zeroBins++
		}
	}
	if zeroBins != 2 { // drivers 13, 14 have no trips
		t.Errorf("zero-filled bins = %d, want 2", zeroBins)
	}
	if _, err := sys.RunWithBins("SELECT COUNT(*) FROM trips", 5, 1e-6, nil); err == nil {
		t.Error("empty bins should be rejected")
	}
}

func TestAnalyzeMetadata(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	a, err := sys.Analyze(`SELECT COUNT(*) FROM trips x
		JOIN trips y ON x.driver_id = y.driver_id`)
	if err != nil {
		t.Fatal(err)
	}
	if a.Joins != 1 || a.Histogram {
		t.Errorf("joins=%d histogram=%v", a.Joins, a.Histogram)
	}
	// mf(driver_id) = 3: stability (3+k)+(3+k)+1 = 7+2k.
	ss, err := sys.SensitivityAt(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != 7 {
		t.Errorf("sensitivity at 0 = %g, want 7", ss[0])
	}
	if len(a.Polynomials) != 1 || !strings.Contains(a.Polynomials[0], "2k") {
		t.Errorf("polynomials = %v", a.Polynomials)
	}
}

func TestAnalyzeRootUnwrapping(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	res, err := sys.Run(
		"SELECT count FROM (SELECT COUNT(*) AS count FROM trips) q", 5, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrueRows[0][0] != 6 {
		t.Errorf("true = %g, want 6", res.TrueRows[0][0])
	}
}

func TestClassify(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	cases := []struct {
		sql  string
		want ErrorCategory
	}{
		{"SELECT COUNT(*) FROM trips", CategorySuccess},
		{"SELECT * FROM trips", CategoryUnsupported},
		{"SELECT COUNT(*) FROM a JOIN b ON a.x > b.y", CategoryUnsupported},
		{"SELEC COUNT(*) FROM trips", CategoryParseError},
		{"SELECT COUNT(*) FROM trips WHERE ???", CategoryParseError},
		{"SELECT COUNT(*) FROM trips GROUP BY city_id HAVING COUNT(*) > 2", CategoryUnsupported},
	}
	for _, c := range cases {
		_, err := sys.Analyze(c.sql)
		if got := Classify(err); got != c.want {
			t.Errorf("Classify(%q) = %v (err=%v), want %v", c.sql, got, err, c.want)
		}
	}
	if Classify(nil) != CategorySuccess {
		t.Error("nil should classify as success")
	}
}

func TestBudgetEnforced(t *testing.T) {
	db := rideshareDB(t)
	budget := smooth.NewBudget(1.0, 1e-5)
	sys := NewSystem(db, Options{Seed: 1, Budget: budget})
	sys.CollectMetrics()
	for i := 0; i < 10; i++ {
		if _, err := sys.Run("SELECT COUNT(*) FROM trips", 0.1, 1e-6); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	if _, err := sys.Run("SELECT COUNT(*) FROM trips", 0.1, 1e-6); err == nil {
		t.Error("11th query should exhaust the budget")
	}
}

func TestPublicTableReducesNoise(t *testing.T) {
	sql := "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id"
	p := smooth.PrivacyParams{Epsilon: 0.1, Delta: 1e-8}

	dbPriv := rideshareDB(t)
	sysPriv := newSystem(t, dbPriv)
	aPriv, err := sysPriv.Analyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	bPriv, err := sysPriv.SmoothBound(aPriv, 0, p)
	if err != nil {
		t.Fatal(err)
	}

	dbPub := rideshareDB(t)
	sysPub := NewSystem(dbPub, Options{Seed: 1})
	sysPub.MarkPublic("cities")
	sysPub.CollectMetrics()
	aPub, err := sysPub.Analyze(sql)
	if err != nil {
		t.Fatal(err)
	}
	bPub, err := sysPub.SmoothBound(aPub, 0, p)
	if err != nil {
		t.Fatal(err)
	}

	if bPub.S >= bPriv.S {
		t.Errorf("public-table optimization did not reduce bound: %g vs %g", bPub.S, bPriv.S)
	}
}

func TestDisablePublicTables(t *testing.T) {
	db := rideshareDB(t)
	sys := NewSystem(db, Options{Seed: 1, DisablePublicTables: true})
	sys.MarkPublic("cities")
	sys.CollectMetrics()
	if sys.Metrics().IsPublic("cities") {
		t.Error("DisablePublicTables should suppress marking")
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	run := func() float64 {
		db := rideshareDB(t)
		sys := NewSystem(db, Options{Seed: 99})
		sys.CollectMetrics()
		res, err := sys.Run("SELECT COUNT(*) FROM trips", 0.5, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		return res.Rows[0].Values[0]
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different outputs: %g vs %g", a, b)
	}
}

func TestInvalidPrivacyParams(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	if _, err := sys.Run("SELECT COUNT(*) FROM trips", 0, 1e-6); err == nil {
		t.Error("zero epsilon should fail")
	}
	if _, err := sys.Run("SELECT COUNT(*) FROM trips", 1, 0); err == nil {
		t.Error("zero delta should fail")
	}
}

func TestSumQueryUsesValueRange(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	a, err := sys.Analyze("SELECT SUM(fare) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sys.SensitivityAt(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	// vr(fare) observed = 30 − 5 = 25; stability 1.
	if ss[0] != 25 {
		t.Errorf("SUM sensitivity = %g, want 25", ss[0])
	}
}

func TestEnforceValueRange(t *testing.T) {
	db := rideshareDB(t)
	sys := NewSystem(db, Options{Seed: 1})
	sys.CollectMetrics()
	if err := sys.EnforceValueRange("trips", "fare", 0, 50); err != nil {
		t.Fatal(err)
	}
	// The enforced range (50) replaces the observed range for SUM.
	a, err := sys.Analyze("SELECT SUM(fare) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	ss, err := sys.SensitivityAt(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ss[0] != 50 {
		t.Errorf("SUM sensitivity = %g, want enforced vr 50", ss[0])
	}
	// Inserts outside the range are rejected.
	if err := db.Insert("trips", 99, 10, 1, 120.0); err == nil {
		t.Error("out-of-range insert should fail")
	}
	if err := db.Insert("trips", 99, 10, 1, 45.0); err != nil {
		t.Errorf("in-range insert failed: %v", err)
	}
	// Installing a constraint violated by existing rows fails.
	if err := sys.EnforceValueRange("trips", "fare", 0, 10); err == nil {
		t.Error("constraint violated by existing rows should fail")
	}
	// Re-collection preserves the enforced vr over the observed one.
	sys.CollectMetrics()
	if vr, _ := sys.Metrics().VR("trips", "fare"); vr != 50 {
		t.Errorf("vr after recollect = %g, want 50", vr)
	}
}

func TestTimingsPopulated(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	res, err := sys.Run("SELECT COUNT(*) FROM trips", 1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalysisTime <= 0 || res.ExecTime <= 0 || res.PerturbTime < 0 {
		t.Errorf("timings = %v %v %v", res.AnalysisTime, res.ExecTime, res.PerturbTime)
	}
}

func TestStaleMetricsPolicies(t *testing.T) {
	// Default (StaleRefresh): metrics auto-recollect after inserts.
	db := rideshareDB(t)
	sys := NewSystem(db, Options{Seed: 1})
	sys.CollectMetrics()
	if !sys.MetricsFresh() {
		t.Fatal("fresh after collect")
	}
	// Concentrate new trips on one driver so mf(driver_id) must grow.
	for i := 0; i < 10; i++ {
		if err := db.Insert("trips", 100+i, 10, 1, 9.0); err != nil {
			t.Fatal(err)
		}
	}
	if sys.MetricsFresh() {
		t.Fatal("insert should stale the metrics")
	}
	if _, err := sys.Run("SELECT COUNT(*) FROM trips", 1, 1e-6); err != nil {
		t.Fatalf("StaleRefresh run failed: %v", err)
	}
	if !sys.MetricsFresh() {
		t.Error("run should have refreshed the metrics")
	}
	if mf, _ := sys.Metrics().MF("trips", "driver_id"); mf != 13 { // 3 original + 10 new
		t.Errorf("refreshed mf = %d, want 13", mf)
	}

	// StaleReject refuses.
	db2 := rideshareDB(t)
	sys2 := NewSystem(db2, Options{Seed: 1, StaleMetrics: StaleReject})
	sys2.CollectMetrics()
	if err := db2.Insert("trips", 200, 10, 1, 9.0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run("SELECT COUNT(*) FROM trips", 1, 1e-6); err != ErrStaleMetrics {
		t.Errorf("StaleReject error = %v, want ErrStaleMetrics", err)
	}

	// StaleIgnore answers with the old metrics.
	db3 := rideshareDB(t)
	sys3 := NewSystem(db3, Options{Seed: 1, StaleMetrics: StaleIgnore})
	sys3.CollectMetrics()
	if err := db3.Insert("trips", 200, 10, 1, 9.0); err != nil {
		t.Fatal(err)
	}
	if _, err := sys3.Run("SELECT COUNT(*) FROM trips", 1, 1e-6); err != nil {
		t.Errorf("StaleIgnore run failed: %v", err)
	}
}

// TestPerturbUsesEachOutputsBound replays a two-output release: with a fixed
// seed, output i's noise must be the i-th Laplace draw of the call's forked
// sampler at output i's own smooth bound. COUNT(*) and SUM(fare) have
// different bounds, so noising every output at the first bound fails here.
func TestPerturbUsesEachOutputsBound(t *testing.T) {
	const sql, eps, delta = "SELECT COUNT(*), SUM(fare) FROM trips", 0.5, 1e-6
	sys := newSystem(t, rideshareDB(t))
	res, err := sys.Run(sql, eps, delta)
	if err != nil {
		t.Fatal(err)
	}
	p := smooth.PrivacyParams{Epsilon: eps, Delta: delta}
	bounds := make([]smooth.Smoothed, 2)
	for i := range bounds {
		if bounds[i], err = sys.SmoothBound(res.Analysis, i, p); err != nil {
			t.Fatal(err)
		}
	}
	if bounds[0].NoiseScale(eps) == bounds[1].NoiseScale(eps) {
		t.Fatalf("both outputs have noise scale %g; the test cannot tell them apart", bounds[0].NoiseScale(eps))
	}
	// The first Run is call 1 of the system's mechanism (Options.Seed 42).
	replay := smooth.NewMechanism(42).Fork(1)
	for i, b := range bounds {
		want := replay.Release(res.TrueRows[0][i], b, eps)
		if got := res.Rows[0].Values[i]; got != want {
			t.Errorf("output %d = %v, want %v (true %v + Laplace at scale %g)",
				i, got, want, res.TrueRows[0][i], b.NoiseScale(eps))
		}
	}
}
