// Command e2e is the repository's benchmark: five named workloads against the
// public surfaces (flex.System.Run, flex.Prepared.Run, and the HTTP server
// behind httptest), every answer verified against an independent oracle,
// nine end-to-end metrics per workload from an untraced run and per-layer
// metrics from a traced one. BENCHMARK.json at the repository root declares
// the workloads, metrics and regression bounds; README.md in this directory
// explains them.
//
//	go run ./bench/e2e                                  all workloads, untraced
//	go run ./bench/e2e -workload server_hot -trace 1    one workload, per-layer
//	go run ./bench/e2e -compare a.jsonl b.jsonl         apply the bounds
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract line: what one run of one workload measured.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// classStat is one query class of a run's mix.
type classStat struct {
	Class        string  `json:"class"`
	Ops          int     `json:"ops"`
	LatencyMSP50 float64 `json:"latency_ms_p50"`
}

// record is one ledger entry (-out appends one per workload run): the
// result stamped with what produced it.
type record struct {
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Scale      float64        `json:"scale"`
	Trace      bool           `json:"trace"`
	Commit     string         `json:"commit"`
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	Time       string         `json:"time"`
	Samples    map[string]int `json:"samples,omitempty"` // sample count behind each percentile
	Classes    []classStat    `json:"classes,omitempty"` // untraced runs: per query class
	Errors     []string       `json:"errors,omitempty"`  // first few failed ops
	result
}

func main() {
	var (
		workloadName = flag.String("workload", "", "workload to run (default: all five, in order)")
		seed         = flag.Int64("seed", 1, "seed of the data, corpus, literals, shuffle and arrival schedule")
		seconds      = flag.Float64("seconds", 20, "measured phase length the op lists are sized for")
		trace        = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: untraced run reporting the end-to-end metrics")
		scale        = flag.Float64("scale", 1, "multiplies op counts (smoke tests)")
		outPath      = flag.String("out", "", "append one JSON record per workload run to this file")
		workDir      = flag.String("workdir", ".bench_out", "directory for spill files and trace_<workload>.json")
		compare      = flag.Bool("compare", false, "compare two -out files: e2e -compare A.jsonl B.jsonl")
		benchFile    = flag.String("benchmark", "BENCHMARK.json", "metric bounds for -compare")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: e2e -compare A.jsonl B.jsonl")
		}
		ok, err := compareFiles(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal("unexpected arguments %v", flag.Args())
	}
	if *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fatal("-seconds and -scale must be positive, -trace 0 or 1")
	}

	procs := maxProcs()
	runtime.GOMAXPROCS(procs)

	run := specs
	if *workloadName != "" {
		s := specByName(*workloadName)
		if s == nil {
			fatal("unknown workload %q", *workloadName)
		}
		run = []spec{*s}
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal("%v", err)
	}

	stamp := record{
		Seed: *seed, Seconds: *seconds, Scale: *scale, Trace: *trace == 1,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: procs,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
	if *outPath != "" {
		stamp.Commit = gitCommit()
	}
	fmt.Printf("# flexbench-e2e seed=%d seconds=%g scale=%g trace=%d nproc=%d GOMAXPROCS=%d %s\n",
		*seed, *seconds, *scale, *trace, stamp.NumCPU, procs, stamp.GoVersion)

	allCorrect := true
	var last *record
	for i := range run {
		s := &run[i]
		baseline := runtime.NumGoroutine()
		rec := stamp
		rec.Workload = s.name
		var err error
		if *trace == 1 {
			quarter := *seconds * traceShare
			err = runTraced(&rec, buildPlan(s, *seed, quarter, *scale), quarter, *workDir)
		} else {
			err = runUntraced(&rec, buildPlan(s, *seed, *seconds, *scale), *seconds, setupRepeats, *workDir)
		}
		if err != nil {
			fatal("%s: %v", s.name, err)
		}
		if n := settleGoroutines(baseline); n > baseline {
			rec.Correct = false
			rec.Errors = append(rec.Errors, fmt.Sprintf("%d goroutines still running after the workload (baseline %d)", n, baseline))
		}
		printRecord(&rec, *trace == 1)
		if *outPath != "" {
			if err := appendRecord(*outPath, &rec); err != nil {
				fatal("%v", err)
			}
		}
		allCorrect = allCorrect && rec.Correct
		last = &rec
	}
	if *workloadName != "" {
		line, err := json.Marshal(last.result)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Println(string(line))
	}
	if !allCorrect {
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2e: "+format+"\n", args...)
	os.Exit(2)
}

// gitCommit stamps ledger records with the checked-out commit, "-dirty" when
// the tree has uncommitted changes; outside a git checkout it is "unknown".
func gitCommit() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--abbrev=7").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// settleGoroutines waits up to two seconds for the goroutine count to fall
// back to the baseline (closed servers and connections wind down
// asynchronously) and returns the final count.
func settleGoroutines(baseline int) int {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	return runtime.NumGoroutine()
}

func appendRecord(path string, rec *record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints every metric of a run by name with its unit, in the
// declared order, with the sample count beside each percentile.
func printRecord(rec *record, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Printf("\n%s  attempted=%d failed=%d correct=%t\n", rec.Workload, rec.Attempted, rec.Failed, rec.Correct)
	for _, d := range defs {
		v := rec.Metrics[d.name]
		line := fmt.Sprintf("  %-42s %16.6g %s", d.name, v.Value, v.Unit)
		if n, ok := rec.Samples[d.name]; ok {
			line += fmt.Sprintf("  (n=%d)", n)
		}
		fmt.Println(line)
	}
	for _, c := range rec.Classes {
		fmt.Printf("  class %-38s %6d ops  p50 %10.4g ms\n", c.Class, c.Ops, c.LatencyMSP50)
	}
	for _, e := range rec.Errors {
		fmt.Println("  ! " + e)
	}
}

// firstErrors returns up to max failure texts of a pass, sorted and
// de-duplicated by text.
func firstErrors(out *outcome, max int) []string {
	seen := make(map[string]bool)
	var errs []string
	for i, f := range out.fail {
		if out.done[i] && f != "" && !seen[f] {
			seen[f] = true
			errs = append(errs, f)
		}
	}
	sort.Strings(errs)
	if len(errs) > max {
		errs = errs[:max]
	}
	return errs
}
