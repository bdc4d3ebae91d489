package flex_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"testing"

	flex "flexdp"
	"flexdp/internal/engine"
	"flexdp/internal/smooth"
	"flexdp/internal/workload"
)

// The engine's plan rewrites (filters below joins, narrowed join output) must
// be invisible to the DP pipeline: for a fixed seed, System.Run returns the
// recorded TrueRows and the same noisy outputs at every worker count and
// memory budget. Ŝ(k) is computed from the submitted SQL either way, so only
// a changed true answer or a changed row order could move a noisy output.

// trueRowsFile holds the TrueRows the naive plan produced: recorded through
// System.Run on the materialize-between-operators executor, which never
// planned, before that executor was removed. Noisy outputs are not recorded
// (math.Exp and math.Log may differ by an ulp across architectures); they are
// compared across the grid instead.
const trueRowsFile = "testdata/plan_rewrite_true_rows.json"

// recordedTrueRows is one query's TrueRows: the row count and the SHA-256 of
// every row's arity (uvarint) and float64 bit patterns (little-endian).
type recordedTrueRows struct {
	Suite  string `json:"suite"`
	SQL    string `json:"sql"`
	Rows   int    `json:"rows"`
	SHA256 string `json:"sha256"`
}

// privateAnswer is one query's release under one execution config.
type privateAnswer struct {
	trueRows recordedTrueRows
	noisy    []uint64 // bit patterns of the noisy rows, row-major
}

// privateAnswers runs every query on a fresh system over eng.
func privateAnswers(t *testing.T, suite string, eng *engine.DB, public, queries []string, cfg engine.ExecConfig) []privateAnswer {
	t.Helper()
	eng.SetExecConfig(cfg)
	db := flex.WrapEngine(eng)
	sys := flex.NewSystem(db, flex.Options{Seed: 23})
	sys.MarkPublic(public...)
	sys.CollectMetrics()
	delta := smooth.DeltaForSize(db.TotalRows())
	var out []privateAnswer
	for _, q := range queries {
		res, err := sys.Run(q, 0.1, delta)
		if err != nil {
			t.Fatalf("%+v %s: %v", cfg, q, err)
		}
		h := sha256.New()
		var buf []byte
		for _, row := range res.TrueRows {
			buf = binary.AppendUvarint(buf[:0], uint64(len(row)))
			for _, v := range row {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
			h.Write(buf)
		}
		a := privateAnswer{trueRows: recordedTrueRows{Suite: suite, SQL: q,
			Rows: len(res.TrueRows), SHA256: hex.EncodeToString(h.Sum(nil))}}
		for _, row := range res.Rows {
			for _, v := range row.Values {
				a.noisy = append(a.noisy, math.Float64bits(v))
			}
		}
		out = append(out, a)
	}
	return out
}

func TestPlanRewritePreservesPrivateResults(t *testing.T) {
	data, err := os.ReadFile(trueRowsFile)
	if err != nil {
		t.Fatal(err)
	}
	var recorded []recordedTrueRows
	if err := json.Unmarshal(data, &recorded); err != nil {
		t.Fatalf("%s: %v", trueRowsFile, err)
	}
	want := make(map[[2]string]recordedTrueRows, len(recorded))
	for _, r := range recorded {
		want[[2]string{r.Suite, r.SQL}] = r
	}

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
		var first []privateAnswer
		for _, workers := range []int{1, 4} {
			for _, budget := range []int64{0, 64 << 10} {
				cfg := base
				cfg.Parallelism, cfg.MemoryBudget = workers, budget
				got := privateAnswers(t, s.name, s.eng, s.public, s.queries, cfg)
				if first == nil {
					first = got
				}
				for i, a := range got {
					label := fmt.Sprintf("%s workers=%d budget=%d %s", s.name, workers, budget, s.queries[i])
					if r, ok := want[[2]string{s.name, s.queries[i]}]; !ok {
						t.Errorf("%s: no TrueRows recorded in %s", label, trueRowsFile)
					} else if a.trueRows != r {
						t.Errorf("%s: TrueRows\ngot      %+v\nrecorded %+v", label, a.trueRows, r)
					}
					if fmt.Sprint(a.noisy) != fmt.Sprint(first[i].noisy) {
						t.Errorf("%s: noisy outputs\ngot                %v\nworkers=1 budget=0 %v", label, a.noisy, first[i].noisy)
					}
				}
			}
		}
	}
}
