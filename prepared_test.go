package flex

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// preparedEquivalenceQueries covers the query shapes of the paper's
// evaluation: plain counts, equijoin counts (Figure 4/Table 5 shapes),
// histograms, and value-range aggregates.
var preparedEquivalenceQueries = []string{
	"SELECT COUNT(*) FROM trips",
	"SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
	"SELECT city_id, COUNT(*) FROM trips GROUP BY city_id",
	"SELECT SUM(fare) FROM trips",
	"SELECT COUNT(*) FROM trips a JOIN trips b ON a.city_id = b.city_id",
}

func resultsEqual(a, b *PrivateResult) error {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("row counts differ: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if len(a.Rows[i].Values) != len(b.Rows[i].Values) {
			return fmt.Errorf("row %d: value arity differs", i)
		}
		for j := range a.Rows[i].Values {
			if a.Rows[i].Values[j] != b.Rows[i].Values[j] {
				return fmt.Errorf("row %d col %d: %v vs %v",
					i, j, a.Rows[i].Values[j], b.Rows[i].Values[j])
			}
		}
		for j := range a.Rows[i].Bins {
			if a.Rows[i].Bins[j] != b.Rows[i].Bins[j] {
				return fmt.Errorf("row %d bin %d: %v vs %v",
					i, j, a.Rows[i].Bins[j], b.Rows[i].Bins[j])
			}
		}
	}
	return nil
}

// TestPreparedMatchesRunBitIdentical proves Prepare+Run replays exactly the
// System.Run pipeline: for the same seed and call sequence, noisy outputs are
// bit-identical, including repeated runs with varying (ε, δ).
func TestPreparedMatchesRunBitIdentical(t *testing.T) {
	params := []struct{ eps, delta float64 }{
		{0.5, 1e-6}, {0.1, 1e-8}, {0.5, 1e-6}, // repeat of the first pair
	}
	for _, sql := range preparedEquivalenceQueries {
		sysA := NewSystem(rideshareDB(t), Options{Seed: 7})
		sysA.CollectMetrics()
		sysB := NewSystem(rideshareDB(t), Options{Seed: 7})
		sysB.CollectMetrics()

		prep, err := sysB.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: prepare: %v", sql, err)
		}
		for i, p := range params {
			ra, err := sysA.Run(sql, p.eps, p.delta)
			if err != nil {
				t.Fatalf("%s: run: %v", sql, err)
			}
			rb, err := prep.Run(p.eps, p.delta)
			if err != nil {
				t.Fatalf("%s: prepared run: %v", sql, err)
			}
			if err := resultsEqual(ra, rb); err != nil {
				t.Errorf("%s call %d: %v", sql, i, err)
			}
		}
	}
}

// TestPreparedMatchesRunLocalK0 repeats the equivalence check under the
// paper-evaluation noise mode used by the Figure 4/Table 5 experiments.
func TestPreparedMatchesRunLocalK0(t *testing.T) {
	sql := "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id"
	sysA := NewSystem(rideshareDB(t), Options{Seed: 3, NoiseMode: ModeLocalK0})
	sysA.CollectMetrics()
	sysB := NewSystem(rideshareDB(t), Options{Seed: 3, NoiseMode: ModeLocalK0})
	sysB.CollectMetrics()
	prep, err := sysB.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		ra, err := sysA.Run(sql, 0.1, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := prep.Run(0.1, 1e-8)
		if err != nil {
			t.Fatal(err)
		}
		if err := resultsEqual(ra, rb); err != nil {
			t.Errorf("call %d: %v", i, err)
		}
	}
}

func TestPreparedRunWithBinsMatches(t *testing.T) {
	sql := "SELECT driver_id, COUNT(*) FROM trips GROUP BY driver_id"
	bins := []any{10, 11, 12, 13}
	sysA := NewSystem(rideshareDB(t), Options{Seed: 11})
	sysA.CollectMetrics()
	sysB := NewSystem(rideshareDB(t), Options{Seed: 11})
	sysB.CollectMetrics()
	prep, err := sysB.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := sysA.RunWithBins(sql, 1, 1e-6, bins)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := prep.RunWithBins(1, 1e-6, bins)
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Rows) != len(bins) {
		t.Fatalf("rows = %d, want %d", len(rb.Rows), len(bins))
	}
	if err := resultsEqual(ra, rb); err != nil {
		t.Error(err)
	}
	if _, err := prep.RunWithBins(1, 1e-6, nil); err == nil {
		t.Error("empty bins should fail")
	}
}

// TestPreparedInvalidationAfterMutation proves a prepared query never
// answers from stale state: after a table mutation the next Run re-executes
// against the live data (and, under StaleRefresh, fresh metrics).
func TestPreparedInvalidationAfterMutation(t *testing.T) {
	db := rideshareDB(t)
	sys := NewSystem(db, Options{Seed: 5})
	sys.CollectMetrics()
	prep, err := sys.Prepare("SELECT COUNT(*) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	res, err := prep.Run(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TrueRows[0][0]; got != 6 {
		t.Fatalf("true count = %g, want 6", got)
	}
	if err := db.Insert("trips", 7, 12, 3, 9.0); err != nil {
		t.Fatal(err)
	}
	res, err = prep.Run(1, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.TrueRows[0][0]; got != 7 {
		t.Fatalf("true count after insert = %g, want 7", got)
	}
	if !sys.MetricsFresh() {
		t.Error("StaleRefresh should have recollected metrics")
	}
}

// TestPreparedInvalidationOnMetricsOverride proves that metrics mutations
// that bypass CollectMetrics — MarkPublic, EnforceValueRange, manual SetVR —
// invalidate cached sensitivities, keeping Prepared.Run equivalent to a
// fresh System.Run.
func TestPreparedInvalidationOnMetricsOverride(t *testing.T) {
	sql := "SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id"
	sys := newSystem(t, rideshareDB(t))
	prep, err := sys.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	sensBefore, err := prep.st.an.SensitivityAt(prep.st.analysis.query, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Marking the joined table public must shrink the sensitivity the next
	// Run uses (Section 3.6), not serve the cached pre-public value.
	sys.MarkPublic("cities")
	if _, err := prep.Run(1, 1e-6); err != nil {
		t.Fatal(err)
	}
	a, err := prep.Analysis()
	if err != nil {
		t.Fatal(err)
	}
	sensAfter, err := sys.SensitivityAt(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(sensAfter[0] < sensBefore[0]) {
		t.Errorf("public-table sensitivity %g not below private %g (stale prepared cache?)",
			sensAfter[0], sensBefore[0])
	}

	// A manual vr override must also invalidate.
	sumPrep, err := sys.Prepare("SELECT SUM(fare) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sumPrep.Run(1, 1e-6); err != nil {
		t.Fatal(err)
	}
	st1 := sumPrep.st
	sys.Metrics().SetVR("trips", "fare", 1000)
	if _, err := sumPrep.Run(1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if sumPrep.st == st1 {
		t.Error("manual SetVR did not invalidate the prepared state")
	}
}

func TestPreparedStaleReject(t *testing.T) {
	db := rideshareDB(t)
	sys := NewSystem(db, Options{Seed: 5, StaleMetrics: StaleReject})
	sys.CollectMetrics()
	prep, err := sys.Prepare("SELECT COUNT(*) FROM trips")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(1, 1e-6); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert("trips", 8, 10, 1, 3.0); err != nil {
		t.Fatal(err)
	}
	if _, err := prep.Run(1, 1e-6); !errors.Is(err, ErrStaleMetrics) {
		t.Fatalf("err = %v, want ErrStaleMetrics", err)
	}
}

func TestPrepareRejectsUnsupported(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	if _, err := sys.Prepare("SELECT * FROM trips"); err == nil {
		t.Error("raw-data query should fail at Prepare")
	}
	if _, err := sys.Prepare("SELEC nope"); err == nil {
		t.Error("parse error should fail at Prepare")
	}
}

// TestConcurrentRunPrepareCollect hammers a System from many goroutines —
// one-shot runs, shared prepared runs, and interleaved metric refreshes —
// and is meaningful under -race: it proves Run/Prepare/CollectMetrics are
// safe to mix concurrently.
func TestConcurrentRunPrepareCollect(t *testing.T) {
	sys := newSystem(t, rideshareDB(t))
	prep, err := sys.Prepare("SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id")
	if err != nil {
		t.Fatal(err)
	}
	histo, err := sys.Prepare("SELECT city_id, COUNT(*) FROM trips GROUP BY city_id")
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 25
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch w % 4 {
				case 0:
					if _, err := sys.Run("SELECT COUNT(*) FROM trips", 1, 1e-6); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := prep.Run(0.5, 1e-6); err != nil {
						errCh <- err
						return
					}
				case 2:
					if _, err := histo.Run(0.5, 1e-6); err != nil {
						errCh <- err
						return
					}
				case 3:
					sys.CollectMetrics()
					if _, err := sys.Prepare("SELECT SUM(fare) FROM trips"); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}
