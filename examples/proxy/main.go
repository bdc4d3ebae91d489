// DP proxy deployment: starts the FLEX HTTP server in-process over the
// rideshare dataset and exercises it the way an analyst's tooling would —
// analyze a query, run it, hit an unsupported query, and watch the shared
// budget drain.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"

	flex "flexdp"
	"flexdp/internal/server"
	"flexdp/internal/smooth"
	"flexdp/internal/workload"
)

func main() {
	cfg := workload.RideshareConfig{Seed: 4, Cities: 15, Drivers: 300, Users: 800, Trips: 15000, Days: 45}
	db := flex.WrapEngine(workload.GenerateRideshare(cfg))
	// The server charges each request to its budget (here the shared
	// pool), so the System needs no Options.Budget.
	budget := smooth.NewBudget(2.0, 1e-4)
	sys := flex.NewSystem(db, flex.Options{Seed: 4})
	sys.MarkPublic("cities")
	sys.CollectMetrics()

	srv := httptest.NewServer(server.New(sys, budget, 1e-8).Handler())
	defer srv.Close()
	fmt.Printf("FLEX proxy serving %d rows at %s\n\n", db.TotalRows(), srv.URL)

	// 1. Static analysis over the wire.
	var analysis server.AnalysisDTO
	post(srv.URL+"/analyze", server.AnalyzeRequest{
		SQL: "SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id",
	}, &analysis)
	fmt.Printf("analyze: joins=%d Ŝ(k)=%s\n", analysis.Joins, analysis.Polynomials[0])

	// 2. Private queries.
	for _, q := range []string{
		"SELECT COUNT(*) FROM trips WHERE status = 'completed'",
		"SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id WHERE c.region = 'na'",
	} {
		var res server.QueryResponse
		post(srv.URL+"/query", server.QueryRequest{SQL: q, Epsilon: 0.5}, &res)
		fmt.Printf("query: %-80s ≈ %.1f\n", q, res.Rows[0][0])
	}

	// 3. Unsupported queries are rejected with the Section 5.1 taxonomy.
	resp, body := rawPost(srv.URL+"/query",
		server.QueryRequest{SQL: "SELECT * FROM trips", Epsilon: 0.5})
	var errResp server.ErrorResponse
	_ = json.Unmarshal(body, &errResp)
	fmt.Printf("\nraw-data query → HTTP %d (%s: %s)\n",
		resp.StatusCode, errResp.Category, errResp.Reason)

	// 4. Budget status.
	var b server.BudgetResponse
	get(srv.URL+"/budget", &b)
	fmt.Printf("budget: spent ε=%.1f of remaining ε=%.1f over %d queries\n",
		b.SpentEpsilon, b.RemainEpsilon, b.QueriesAnswered)
}

func post(url string, req, out any) {
	resp, body := rawPost(url, req)
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		log.Fatal(err)
	}
}

func rawPost(url string, req any) (*http.Response, []byte) {
	data, err := json.Marshal(req)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		log.Fatal(err)
	}
	return resp, buf.Bytes()
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
