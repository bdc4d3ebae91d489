package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json that -compare reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readLedger groups the untraced records of a -out file: workload → metric
// → one value per run.
func readLedger(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace {
			continue
		}
		if runs[rec.Workload] == nil {
			runs[rec.Workload] = make(map[string][]float64)
		}
		for name, v := range rec.Metrics {
			runs[rec.Workload][name] = append(runs[rec.Workload][name], v.Value)
		}
	}
	return runs, sc.Err()
}

// spread is the distance between the quartiles as a share of the median —
// the run-to-run noise of one side. NaN with fewer than two runs.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// compareFiles applies BENCHMARK.json's bounds to two ledgers, base then
// candidate, printing one row per (workload, end-to-end metric): both
// medians, the candidate ÷ base ratio, each side's spread, and a verdict.
// A pair whose spread exceeds the bound on either side is unresolved, not
// unchanged. It reports whether every resolved pair is within its bound.
func compareFiles(w io.Writer, benchPath, basePath, candPath string) (bool, error) {
	bench, err := readBenchmark(benchPath)
	if err != nil {
		return false, err
	}
	base, err := readLedger(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readLedger(candPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tbase (%s)\tcandidate (%s)\tratio\tspread base\tspread cand\tbound\tverdict\n", basePath, candPath)
	ok := true
	for _, wl := range bench.Workloads {
		for _, m := range bench.EndToEnd {
			a, b := base[wl.Name][m.Name], cand[wl.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%.0f%%\tmissing\n", wl.Name, m.Name, m.Bound*100)
				ok = false
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma // share of the base median by which the candidate is worse
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s (n=%d)\t%.6g %s (n=%d)\t%.4f\t%s\t%s\t%.0f%%\t%s\n",
				wl.Name, m.Name, ma, m.Unit, len(a), mb, m.Unit, len(b), mb/ma, pct(sa), pct(sb), m.Bound*100, verdict)
		}
	}
	return ok, tw.Flush()
}

func pct(x float64) string {
	if math.IsNaN(x) {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", x*100)
}
