package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	flex "flexdp"
)

// spillTestServer builds a proxy whose System runs under a tiny per-query
// memory budget, forcing join/sort state through the spill subsystem, with
// spill files confined to a test-owned directory.
func spillTestServer(t *testing.T, budgetBytes int64, dir string) (*httptest.Server, *flex.System) {
	t.Helper()
	sys := spillTestSystem(t, budgetBytes, dir)
	srv := httptest.NewServer(New(sys, nil, 1e-8).Handler())
	t.Cleanup(srv.Close)
	return srv, sys
}

// spillTestSystem is spillTestServer's System: trips joined to drivers.
func spillTestSystem(t *testing.T, budgetBytes int64, dir string) *flex.System {
	t.Helper()
	db := flex.NewDatabase()
	if err := db.CreateTable("trips",
		flex.Col{Name: "id", Type: flex.TypeInt},
		flex.Col{Name: "driver_id", Type: flex.TypeInt},
		flex.Col{Name: "fare", Type: flex.TypeFloat}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateTable("drivers",
		flex.Col{Name: "id", Type: flex.TypeInt},
		flex.Col{Name: "city", Type: flex.TypeString}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if err := db.Insert("trips", i, i%40, float64(i%97)+0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		city := "sf"
		if i%2 == 0 {
			city = "nyc"
		}
		if err := db.Insert("drivers", i, city); err != nil {
			t.Fatal(err)
		}
	}
	sys := flex.NewSystem(db, flex.Options{Seed: 7, MemoryBudget: budgetBytes, TempDir: dir})
	sys.CollectMetrics()
	return sys
}

// TestServerSpillHygieneAndDeterminism drives join queries through the HTTP
// layer under a spill-forcing budget: answers must match a no-budget system
// with the same seed bit for bit, spill activity must be visible on
// /healthz, and — the drain guarantee — once all requests have completed,
// the spill directory must be empty (flexserver's shutdown then RemoveAlls
// the directory itself, covering files orphaned by a crash).
func TestServerSpillHygieneAndDeterminism(t *testing.T) {
	dir := t.TempDir()
	spilled, spilledSys := spillTestServer(t, 2048, dir)

	refDir := t.TempDir()
	unbounded, _ := spillTestServer(t, 0, refDir)

	queries := []string{
		`SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE d.city = 'sf'`,
		`SELECT COUNT(*) FROM trips WHERE fare > 50.0`,
	}
	for _, sql := range queries {
		req := QueryRequest{SQL: sql, Epsilon: 0.5}
		respA, bodyA := postJSON(t, spilled.URL+"/query", req)
		respB, bodyB := postJSON(t, unbounded.URL+"/query", req)
		if respA.StatusCode != http.StatusOK || respB.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d / %d: %s %s", sql, respA.StatusCode, respB.StatusCode, bodyA, bodyB)
		}
		var outA, outB QueryResponse
		if err := json.Unmarshal(bodyA, &outA); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(bodyB, &outB); err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(outA.Rows)
		b, _ := json.Marshal(outB.Rows)
		if string(a) != string(b) {
			t.Fatalf("%s: spilled answer %s != unbounded %s", sql, a, b)
		}
	}

	if st := spilledSys.SpillStats(); st.JoinSpills == 0 {
		t.Fatalf("budgeted server never spilled: %+v", st)
	}

	// /healthz surfaces the spill stats.
	resp, err := http.Get(spilled.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Spill struct {
			JoinSpills   int64 `json:"join_spills"`
			SpilledBytes int64 `json:"spilled_bytes"`
		} `json:"spill"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Spill.JoinSpills == 0 || health.Spill.SpilledBytes == 0 {
		t.Fatalf("healthz spill stats empty: %+v", health.Spill)
	}

	// Drain guarantee: no request in flight, so no spill file may remain.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("%d leftover spill files after drain: %v", len(entries), names)
	}
}
