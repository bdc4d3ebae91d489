package flex_test

import (
	"fmt"
	"math"
	"testing"

	flex "flexdp"
	"flexdp/internal/engine"
	"flexdp/internal/smooth"
	"flexdp/internal/workload"
)

// The engine's plan rewrites (filters below joins, narrowed join output) must
// be invisible to the DP pipeline: for a fixed seed, System.Run returns the
// same TrueRows and the same noisy outputs whether the engine plans (the
// streaming default) or cannot (MaterializeStages, the naive-plan executor).
// Ŝ(k) is computed from the submitted SQL either way, so only a changed true
// answer or a changed row order could move a noisy output.

// privateAnswers runs every query on a fresh system over eng and returns, per
// query, the bit patterns of TrueRows followed by those of the noisy rows.
func privateAnswers(t *testing.T, eng *engine.DB, public, queries []string, cfg engine.ExecConfig) [][]uint64 {
	t.Helper()
	eng.SetExecConfig(cfg)
	db := flex.WrapEngine(eng)
	sys := flex.NewSystem(db, flex.Options{Seed: 23})
	sys.MarkPublic(public...)
	sys.CollectMetrics()
	delta := smooth.DeltaForSize(db.TotalRows())
	var out [][]uint64
	for _, q := range queries {
		res, err := sys.Run(q, 0.1, delta)
		if err != nil {
			t.Fatalf("%+v %s: %v", cfg, q, err)
		}
		var bits []uint64
		for _, row := range res.TrueRows {
			for _, v := range row {
				bits = append(bits, math.Float64bits(v))
			}
		}
		for _, row := range res.Rows {
			for _, v := range row.Values {
				bits = append(bits, math.Float64bits(v))
			}
		}
		out = append(out, bits)
	}
	return out
}

func TestPlanRewritePreservesPrivateResults(t *testing.T) {
	tpch := map[string]bool{"Q13": true, "Q16": true, "Q21": true}
	var tpchQueries []string
	for _, q := range workload.TPCHQueries() {
		if tpch[q.ID] {
			tpchQueries = append(tpchQueries, q.SQL)
		}
	}
	suites := []struct {
		name    string
		eng     *engine.DB
		public  []string
		queries []string
	}{
		{"table2", workload.GenerateRideshare(workload.RideshareConfig{
			Seed: 3, Cities: 12, Drivers: 150, Users: 400, Trips: 4000, Days: 40}),
			workload.RidesharePublicTables(), []string{
				"SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE d.active = TRUE AND t.day >= 9",
				"SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id WHERE c.region = 'emea'",
				"SELECT COUNT(*) FROM trips t JOIN user_tags g ON t.day = g.day WHERE t.city_id = 4",
			}},
		{"tpch", workload.GenerateTPCH(workload.TPCHConfig{Seed: 3, Scale: 0.05}),
			workload.TPCHPublicTables(), tpchQueries},
	}
	for _, s := range suites {
		s.eng.SetTempDir(t.TempDir())
		base := s.eng.ExecConfig()
		naive := base
		naive.MaterializeStages = true
		want := privateAnswers(t, s.eng, s.public, s.queries, naive)
		for _, workers := range []int{1, 4} {
			for _, budget := range []int64{0, 64 << 10} {
				cfg := base
				cfg.Parallelism, cfg.MemoryBudget = workers, budget
				got := privateAnswers(t, s.eng, s.public, s.queries, cfg)
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Errorf("%s workers=%d budget=%d %s:\nplanned %v\nnaive   %v",
							s.name, workers, budget, s.queries[i], got[i], want[i])
					}
				}
			}
		}
	}
}
