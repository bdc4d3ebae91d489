package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"time"

	"flexdp/internal/engine"
	"flexdp/internal/server"
	"flexdp/internal/workload"
)

// epsilon is the per-query ε of every workload (the paper's evaluation
// setting); δ is smooth.DeltaForSize(rows) of the workload's database.
const epsilon = 0.1

// Workload kinds: which public surface the operations go through and how
// they are paced.
const (
	kindCold     = iota // flex.System.Run, one caller, closed loop
	kindPrepared        // flex.Prepared.Run, one caller, closed loop
	kindClosed          // POST /query, one request in flight per connection
	kindOpen            // POST /query on a fixed arrival schedule
)

// spec describes one named workload. opsPerSecond is the frozen sizing
// calibration: the measured list holds opsPerSecond × seconds operations,
// which takes ≈ seconds on the reference container (2 vCPU, see README).
// A fixed list — not a fixed duration — keeps sample counts and percentile
// ranks identical on both sides of any comparison.
type spec struct {
	name         string
	why          string
	kind         int
	opsPerSecond float64
	build        func(seed int64, n int) *plan
}

// server_open's frozen arrival rates (requests per second). Hot-set requests
// arrive as a Poisson process; trips-scale joins arrive evenly spaced, each
// moved by up to ±openJoinJitter/2 of the spacing. Together ≈23% process CPU
// utilisation on the reference container: queueing is visible and no backlog
// grows (see buildServerOpen for how the rates were set).
const (
	openHotRate    = 50.0
	openJoinRate   = 10.0
	openRate       = openHotRate + openJoinRate
	openJoinJitter = 0.25
)

var specs = []spec{
	{
		name: "table2_cold", kind: kindCold, opsPerSecond: 64,
		why:   "paper Table 2: cold System.Run over the rideshare corpus; the in-memory engine does ~99% of the work, so engine changes show here and front-end changes must not",
		build: buildTable2Cold,
	},
	{
		name: "tpch_spill", kind: kindPrepared, opsPerSecond: 10,
		why:   "five Table-3 TPC-H queries, prepared once, under a 2 MiB memory budget: Grace joins and partitioned aggregation through spill files, the engine's out-of-core path",
		build: buildTPCHSpill,
	},
	{
		name: "server_hot", kind: kindClosed, opsPerSecond: 4000,
		why:   "HTTP closed loop, 24 hot small-table queries that fit the prepared LRU: every request is a cache hit, so decode, canonicalisation, LRU, budget and JSON encoding weigh as much as the engine",
		build: buildServerHot,
	},
	{
		name: "server_churn", kind: kindClosed, opsPerSecond: 350,
		why:   "HTTP closed loop, every request a distinct canonical query: working set far above the LRU, so every request misses and pays Prepare plus the full smoothing sweep (parse, relalg, core, smooth)",
		build: buildServerChurn,
	},
	{
		name: "server_open", kind: kindOpen, opsPerSecond: openRate,
		why:   "HTTP open loop at a fixed 60 req/s timed from due time, 50/s Poisson hot-set requests and 10/s evenly spaced trips-scale joins: queueing shows as latency instead of closed-loop back-off",
		build: buildServerOpen,
	},
}

func specByName(name string) *spec {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i]
		}
	}
	return nil
}

// Seed streams: every random choice of a run derives from -seed through one
// of these, so the data, the corpus, the literal sequence, the shuffle and
// the arrival schedule are independent of each other and reproducible.
const (
	streamData = iota + 1
	streamCorpus
	streamLiterals
	streamShuffle
	streamArrivals
	streamNoise
)

// derive returns the sub-seed of a stream (splitmix64 finaliser, so nearby
// seeds give unrelated streams).
func derive(seed int64, stream int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(stream)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// query is one distinct query of a workload: the canonical spelling handed
// to the program under test, its class (template), and the oracle closure
// that computes the true answer from the raw tables.
type query struct {
	SQL   string
	Class string
	Want  func(t tables) answer
}

// op is one operation of a fixed list.
type op struct {
	Query   int           // index into plan.queries
	SQL     string        // the spelling sent (HTTP workloads vary case and whitespace)
	Analyst string        // X-Analyst header, HTTP only
	Body    []byte        // pre-marshalled POST /query body, HTTP only
	Due     time.Duration // offset from phase start, open loop only
}

// plan is a workload instance for one seed: dataset, distinct queries, the
// discarded warm-up list and the measured list.
type plan struct {
	spec *spec
	seed int64
	tpch bool // dataset: TPC-H (true) or rideshare (false)
	// dataScale multiplies the dataset's row counts; 1 everywhere except the
	// unit tests' smoke runs, which shrink the data to stay fast.
	dataScale float64
	queries   []query
	warm      []op
	ops       []op
}

// generateData builds the plan's database from the seed.
func (p *plan) generateData() *engine.DB {
	if p.tpch {
		return workload.GenerateTPCH(workload.TPCHConfig{Seed: derive(p.seed, streamData), Scale: p.dataScale})
	}
	cfg := workload.DefaultRideshare()
	cfg.Seed = derive(p.seed, streamData)
	scaled := func(n int) int { return int(math.Ceil(float64(n) * p.dataScale)) }
	cfg.Drivers, cfg.Users, cfg.Trips = scaled(cfg.Drivers), scaled(cfg.Users), scaled(cfg.Trips)
	return workload.GenerateRideshare(cfg)
}

// warmCount is the discarded warm-up: 5% of the measured list.
func warmCount(n int) int {
	w := (n + 19) / 20
	if w < 1 {
		w = 1
	}
	return w
}

// share is one class of a mix with its share of the list in percent.
type share struct {
	class string
	pct   float64
}

// mixOps lays out n operations with exactly round(share × n) of each class
// (the last class absorbs rounding), cycling through each class's query
// instances. Exact counts, not sampled ones, keep every percentile rank
// inside the same class on every seed. The order is a stratified shuffle:
// the j-th of a class's k ops lands at a seeded uniform point of the j-th
// k-th of the list, so every class is spread over the whole list with
// jittered, never clumped, spacing. (A plain shuffle clumps the few expensive
// ops differently on every seed, and the tail percentiles then measure the
// shuffle.)
func mixOps(rng *rand.Rand, n int, shares []share, byClass map[string][]int) []op {
	type slot struct {
		pos   float64
		query int
	}
	slots := make([]slot, 0, n)
	for i, s := range shares {
		k := int(math.Round(s.pct / 100 * float64(n)))
		if i == len(shares)-1 || len(slots)+k > n {
			k = n - len(slots)
		}
		inst := byClass[s.class]
		if len(inst) == 0 {
			panic("bench/e2e: mix class without queries: " + s.class)
		}
		for j := 0; j < k; j++ {
			slots = append(slots, slot{(float64(j) + rng.Float64()) / float64(k), inst[j%len(inst)]})
		}
	}
	sort.SliceStable(slots, func(a, b int) bool { return slots[a].pos < slots[b].pos })
	ops := make([]op, n)
	for i, sl := range slots {
		ops[i] = op{Query: sl.query}
	}
	return ops
}

func classIndex(qs []query) map[string][]int {
	by := make(map[string][]int)
	for i, q := range qs {
		by[q.Class] = append(by[q.Class], i)
	}
	return by
}

// table2Mix is the table2_cold class mix. On the reference container the
// seven scan classes take 1–3 ms, the two one-to-many joins 19–28 ms and the
// many-to-many join ≈155 ms, so the latency order is scans (0–74%), region
// join (74–84%), active-driver join (84–94%), many-to-many (94–100%): p50
// sits 24 points inside the scans, p90 in the middle of the active-driver
// band, and the tail percentile 4+ points inside the many-to-many band.
// (The corpus generator's uniform 10% per template would put p90 on the
// join/many-to-many boundary.)
var table2Mix = []share{
	{"all trips", 8},
	{"trips in a day window", 10},
	{"trips in one city", 10},
	{"trips of one driver", 10},
	{"promotion success in a small slice", 10},
	{"daily trips by city", 13},
	{"trips per driver", 13},
	{"trips by region via public cities", 10},
	{"trips by active drivers", 10},
	{"tag activity coinciding with trips", 6},
}

// corpusSize is how many queries are drawn from the experiment-corpus
// generator; the mix then takes each class's instances in corpus order.
const corpusSize = 400

func buildTable2Cold(seed int64, n int) *plan {
	p := &plan{seed: seed}
	cfg := workload.DefaultExpCorpus()
	cfg.Seed = derive(seed, streamCorpus)
	cfg.N = corpusSize
	for _, q := range workload.GenerateExpCorpus(cfg) {
		p.queries = append(p.queries, corpusQuery(q))
	}
	by := classIndex(p.queries)
	rng := rand.New(rand.NewSource(derive(seed, streamShuffle)))
	p.ops = mixOps(rng, n, table2Mix, by)
	p.warm = mixOps(rng, warmCount(n), table2Mix, by)
	fillSQL(p)
	return p
}

func buildTPCHSpill(seed int64, n int) *plan {
	p := &plan{seed: seed, tpch: true}
	for _, q := range workload.TPCHQueries() {
		p.queries = append(p.queries, tpchQuery(q))
	}
	// Whole passes over the five queries, in order: equal shares, so p50
	// reads the middle query and p90 the slowest, ten points from a boundary.
	k := len(p.queries)
	n = (n + k - 1) / k * k
	for i := 0; i < n; i++ {
		p.ops = append(p.ops, op{Query: i % k})
	}
	for i := 0; i < k; i++ {
		p.warm = append(p.warm, op{Query: i})
	}
	fillSQL(p)
	return p
}

// fillSQL sets each library op's SQL to its query's canonical spelling.
func fillSQL(p *plan) {
	for _, list := range [][]op{p.warm, p.ops} {
		for i := range list {
			list[i].SQL = p.queries[list[i].Query].SQL
		}
	}
}

// Small-table query templates shared by server_hot (24 fixed instances) and
// server_churn (every instance distinct). All run against users, drivers,
// analytics and the public cities table: 0–2 joins, ≈0.1 ms of engine work.
const (
	classUsersWindow   = "users in a signup window"        // 0 joins
	classDriversFleet  = "drivers by vehicle and tenure"   // 0 joins
	classRatedDrivers  = "rated drivers"                   // 1 join, private
	classUsersRegion   = "users by region"                 // 1 join, public cities
	classRegionDrivers = "rated drivers by region"         // 2 joins
	classAnalyticsScan = "analytics by rating and trips"   // 0 joins
	classRatingsByCity = "ratings per city histogram"      // 40 enumerated bins
	classDriversByCity = "drivers per home city histogram" // 40 enumerated bins
	// classTripsRegion is server_open's heavy class, the corpus template of the
	// same name: one hash join at trips scale, ≈25 ms on both CPUs.
	classTripsRegion = "trips by region via public cities"
)

var (
	regions      = []string{"na", "emea", "apac", "latam"}
	vehicleKinds = []string{"sedan", "suv", "motorbike", "van"}
)

// smallQuery draws one instance of a small-table template with seeded
// literals. Literal spaces are wide (≥ 10⁴ combinations per template) so
// server_churn can draw thousands of distinct instances.
func smallQuery(rng *rand.Rand, class string) query {
	cfg := workload.DefaultRideshare()
	switch class {
	case classUsersWindow:
		lo := rng.Intn(cfg.Days - 1)
		hi := lo + 1 + rng.Intn(cfg.Days-lo)
		minID := rng.Intn(cfg.Users / 2)
		return query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM users WHERE signup_day >= %d AND signup_day < %d AND id > %d",
				lo, hi, minID),
			Class: class,
			Want:  func(t tables) answer { return t.usersWindow(int64(lo), int64(hi), int64(minID)) },
		}
	case classDriversFleet:
		v := vehicleKinds[rng.Intn(len(vehicleKinds))]
		day := rng.Intn(cfg.Days)
		trips := rng.Intn(60)
		minID := rng.Intn(cfg.Drivers / 2)
		return query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM drivers WHERE vehicle = '%s' AND signup_day >= %d AND completed_trips >= %d AND id > %d",
				v, day, trips, minID),
			Class: class,
			Want:  func(t tables) answer { return t.driversFleet(v, int64(day), int64(trips), int64(minID)) },
		}
	case classRatedDrivers:
		rating := 3.5 + float64(rng.Intn(150))/100
		day := rng.Intn(cfg.Days)
		minID := rng.Intn(cfg.Drivers / 2)
		return query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM drivers d JOIN analytics a ON d.id = a.driver_id WHERE a.rating >= %.2f AND d.signup_day >= %d AND d.id > %d",
				rating, day, minID),
			Class: class,
			Want:  func(t tables) answer { return t.ratedDrivers(rating, int64(day), int64(minID)) },
		}
	case classUsersRegion:
		r := regions[rng.Intn(len(regions))]
		day := 1 + rng.Intn(cfg.Days)
		minID := rng.Intn(cfg.Users / 2)
		return query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM users u JOIN cities c ON u.city_id = c.id WHERE c.region = '%s' AND u.signup_day < %d AND u.id > %d",
				r, day, minID),
			Class: class,
			Want:  func(t tables) answer { return t.usersRegion(r, int64(day), int64(minID)) },
		}
	case classRegionDrivers:
		r := regions[rng.Intn(len(regions))]
		trips := rng.Intn(60)
		rating := 3.5 + float64(rng.Intn(150))/100
		return query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM drivers d JOIN analytics a ON d.id = a.driver_id JOIN cities c ON d.home_city = c.id WHERE c.region = '%s' AND a.completed_trips >= %d AND a.rating >= %.2f",
				r, trips, rating),
			Class: class,
			Want:  func(t tables) answer { return t.regionDrivers(r, int64(trips), rating) },
		}
	case classAnalyticsScan:
		rating := 3.5 + float64(rng.Intn(150))/100
		trips := rng.Intn(60)
		minID := rng.Intn(cfg.Drivers / 2)
		return query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM analytics WHERE rating >= %.2f AND completed_trips >= %d AND driver_id > %d",
				rating, trips, minID),
			Class: class,
			Want:  func(t tables) answer { return t.analyticsScan(rating, int64(trips), int64(minID)) },
		}
	case classRatingsByCity:
		return query{
			SQL:   "SELECT city_id, COUNT(*) FROM analytics GROUP BY city_id",
			Class: class,
			Want:  func(t tables) answer { return t.cityHistogram("analytics", "city_id") },
		}
	case classDriversByCity:
		return query{
			SQL:   "SELECT home_city, COUNT(*) FROM drivers GROUP BY home_city",
			Class: class,
			Want:  func(t tables) answer { return t.cityHistogram("drivers", "home_city") },
		}
	case classTripsRegion:
		r := regions[rng.Intn(len(regions))]
		day := rng.Intn(cfg.Days / 3)
		return query{
			SQL: fmt.Sprintf("SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id WHERE c.region = '%s' AND t.day >= %d",
				r, day),
			Class: class,
			Want:  func(t tables) answer { return t.tripsRegion(r, int64(day)) },
		}
	}
	panic("bench/e2e: unknown small-table class " + class)
}

// distinctQueries draws count instances of each class with no SQL text
// repeated (re-drawing on collision).
func distinctQueries(rng *rand.Rand, seen map[string]bool, class string, count int) []query {
	out := make([]query, 0, count)
	for len(out) < count {
		q := smallQuery(rng, class)
		if seen[q.SQL] {
			continue
		}
		seen[q.SQL] = true
		out = append(out, q)
	}
	return out
}

// hotSet is the 24-query hot set: 22 seeded instances of the six scalar
// templates plus the two 40-bin city histograms. 24 canonical queries fit
// the 128-entry prepared LRU with room to spare, so after the warm-up every
// request is a hit.
func hotSet(rng *rand.Rand) []query {
	seen := make(map[string]bool)
	var qs []query
	for _, c := range []struct {
		class string
		n     int
	}{
		{classDriversFleet, 6}, {classAnalyticsScan, 6}, {classUsersWindow, 2},
		{classRatedDrivers, 3}, {classUsersRegion, 3}, {classRegionDrivers, 2},
		{classDriversByCity, 1}, {classRatingsByCity, 1},
	} {
		qs = append(qs, distinctQueries(rng, seen, c.class, c.n)...)
	}
	return qs
}

// hotMix is server_hot's class mix. Measured, the engine spends 0.1–0.15 ms
// on a 1,200-row scan or histogram but ≈1 ms on any hash join, however small
// the tables, so a join-heavy hot set is an engine workload (the first cut —
// 45% joins over users — was 59% engine). Scans and histograms over the
// 1,200-row tables therefore make up 85% of the list and server work
// dominates; the three join classes fill 85–100%, so p50 sits deep in the
// scan band and p90 and p99 five and four points inside the join band.
var hotMix = []share{
	{classDriversFleet, 30}, {classAnalyticsScan, 30}, {classUsersWindow, 10},
	{classDriversByCity, 7.5}, {classRatingsByCity, 7.5},
	{classRatedDrivers, 5}, {classUsersRegion, 5}, {classRegionDrivers, 5},
}

const (
	analysts  = 8 // distinct X-Analyst ids, each with its own budget
	spellings = 4 // case/whitespace variants per canonical query
)

// spell returns one of the four spellings of a canonical query. All four
// canonicalise (sqlparser.Parse + Print) to the same cache key; the test
// suite pins that.
func spell(sql string, variant int) string {
	switch variant % spellings {
	case 1:
		return lowerKeywords.Replace(sql)
	case 2:
		return strings.ReplaceAll(strings.ReplaceAll(sql, " FROM ", "\n  FROM "), " WHERE ", "\n WHERE ")
	case 3:
		return "  " + strings.ReplaceAll(lowerKeywords.Replace(sql), ", ", " ,  ") + " "
	}
	return sql
}

var lowerKeywords = strings.NewReplacer(
	"SELECT ", "select ", " FROM ", " from ", " WHERE ", " where ", " JOIN ", " join ",
	" ON ", " on ", " AND ", " and ", " GROUP BY ", " group by ", "COUNT(", "count(")

// finishHTTP fills spelling, analyst and body of every HTTP op. The literal
// stream decides spelling and analyst, so they are independent of the
// shuffle.
func finishHTTP(p *plan) {
	rng := rand.New(rand.NewSource(derive(p.seed, streamLiterals) + 1))
	for _, list := range [][]op{p.warm, p.ops} {
		for i := range list {
			o := &list[i]
			o.SQL = spell(p.queries[o.Query].SQL, rng.Intn(spellings))
			o.Analyst = fmt.Sprintf("analyst-%d", rng.Intn(analysts))
			// δ is omitted: the server applies its DefaultDelta, which the
			// harness sets to smooth.DeltaForSize(rows).
			body, err := json.Marshal(server.QueryRequest{SQL: o.SQL, Epsilon: epsilon})
			if err != nil {
				panic(err) // a string and two floats always marshal
			}
			o.Body = body
		}
	}
}

// primeOps returns one op per distinct query, so a warm-up can load every
// query of a hot set into the prepared cache before the measured list.
func primeOps(p *plan) []op {
	ops := make([]op, len(p.queries))
	for i := range ops {
		ops[i] = op{Query: i}
	}
	return ops
}

func buildServerHot(seed int64, n int) *plan {
	p := &plan{seed: seed}
	p.queries = hotSet(rand.New(rand.NewSource(derive(seed, streamLiterals))))
	by := classIndex(p.queries)
	rng := rand.New(rand.NewSource(derive(seed, streamShuffle)))
	p.ops = mixOps(rng, n, hotMix, by)
	p.warm = append(primeOps(p), mixOps(rng, warmCount(n), hotMix, by)...)
	finishHTTP(p)
	return p
}

// churnMix is server_churn's mix over five scalar templates. Only a join
// between private tables has a sensitivity polynomial of positive degree, so
// only "rated drivers" (≈4 ms) and "rated drivers by region" (≈7 ms) pay the
// Ŝ(k) sweep to the cutoff; a scan or a join with the public cities table
// smooths in one step (≈0.3–1 ms). The issue's equal shares would leave 60%
// of the requests without a sweep and the engine's ≈1 ms hash join as the
// largest layer, so the two sweeping classes take 90% of the list: bands are
// 0–10% cheap, 10–60% one private join, 60–100% two joins, p50 ten points
// inside the first sweeping band and p90/p99 inside the second.
var churnMix = []share{
	{classUsersWindow, 4}, {classDriversFleet, 3}, {classUsersRegion, 3},
	{classRatedDrivers, 50}, {classRegionDrivers, 40},
}

func buildServerChurn(seed int64, n int) *plan {
	p := &plan{seed: seed}
	w := warmCount(n)
	// The warm-up must at least fill the LRU, or the first measured
	// requests would miss without evicting.
	if w < server.DefaultCacheSize+8 {
		w = server.DefaultCacheSize + 8
	}
	lit := rand.New(rand.NewSource(derive(seed, streamLiterals)))
	seen := make(map[string]bool)
	// Enough distinct queries of each class for both lists; mixOps then
	// takes each class's instances in order, so none is used twice.
	for _, s := range churnMix {
		k := int(math.Ceil(s.pct/100*float64(n))) + int(math.Ceil(s.pct/100*float64(w))) + len(churnMix)
		p.queries = append(p.queries, distinctQueries(lit, seen, s.class, k)...)
	}
	rng := rand.New(rand.NewSource(derive(seed, streamShuffle)))
	by := classIndex(p.queries)
	p.ops = mixOps(rng, n, churnMix, by)
	for _, o := range p.ops { // the warm-up draws from the instances the list left over
		by[p.queries[o.Query].Class] = by[p.queries[o.Query].Class][1:]
	}
	p.warm = mixOps(rng, w, churnMix, by)
	finishHTTP(p)
	return p
}

// heavyQueries is how many distinct trips-scale joins server_open draws: 24
// hot + 12 heavy = 36 canonical queries, inside the LRU.
const heavyQueries = 12

// buildServerOpen lays out server_open: the hot set in hotMix proportions on
// a Poisson schedule at openHotRate, and one trips-scale join every
// 1/openJoinRate seconds ± jitter.
//
// The issue proposed 200 req/s with 15% joins from two corpus templates on an
// estimate of 10–20 ms each. Measured, a trips-scale join holds both CPUs for
// 22–30 ms (≈48 ms of CPU, 45 MB allocated, one GC cycle) whatever its filter,
// with a long right tail: one in ten takes 36 ms or more, one in twenty 42.
// Ten a second is ≈23% utilisation.
//
// Three choices follow from the gate reading p90 and p99 off one 20-second
// list. Each was measured over ten seeds (spread = quartile distance ÷ median):
//
//   - Joins are spaced evenly, not Poisson. Two joins that arrive within one
//     join's length of each other queue, and every hot request due meanwhile
//     queues behind both; a Poisson schedule has about eight such pairs in a
//     run, give or take three, and that count alone decided p99 (37–190 ms,
//     spread 77%). Spaced evenly a join never meets another; what remains is
//     what the server does with one join among hot requests.
//   - Joins are a sixth of the list, so that p90 reads a join. The latency
//     order is: hot requests that met no join (about 0–65%), hot requests
//     that arrived while a join held the CPUs (65–83%, up to one join long),
//     joins (83–100%). With joins under a tenth of the list p90 falls in the queued
//     band, whose width is join length × join rate: a machine 10% slower moved
//     that p90 by 28% (spread 15%, against 3–8% for a p90 inside the joins).
//     More requests per second do not help either: at 200 req/s one stall of
//     the shared host queues a hundred requests (p99 33–700 ms).
//   - One join template, the cheaper. With the private-drivers template
//     (≈33 ms) alternating, the upper half of the joins is that template and
//     p99 sits where its slow tail begins (spread 21%); with one template the
//     13 slowest joins of 200 are all tail (spread 10–14%).
//
// p50 then reads an unqueued hot request a dozen points from the queued band,
// p90 the 40th percentile of the joins, p99 their 93rd. The share of requests
// in each band is fixed by the mix, not by the machine's speed.
func buildServerOpen(seed int64, n int) *plan {
	p := &plan{seed: seed}
	lit := rand.New(rand.NewSource(derive(seed, streamLiterals)))
	p.queries = hotSet(lit)
	p.queries = append(p.queries, distinctQueries(lit, make(map[string]bool), classTripsRegion, heavyQueries)...)
	by := classIndex(p.queries)
	rng := rand.New(rand.NewSource(derive(seed, streamShuffle)))

	joins := int(math.Round(float64(n) * openJoinRate / openRate))
	hots := n - joins
	span := float64(n) / openRate // seconds the list covers
	p.ops = mixOps(rng, hots, hotMix, by)
	for i, due := range poissonSchedule(derive(seed, streamArrivals), hots, float64(hots)/span) {
		p.ops[i].Due = due
	}
	heavy := by[classTripsRegion]
	for j := 0; j < joins; j++ {
		slot := (float64(j) + 0.5 + openJoinJitter*(rng.Float64()-0.5)) / float64(joins)
		p.ops = append(p.ops, op{
			Query: heavy[j%len(heavy)],
			Due:   time.Duration(slot * span * float64(time.Second)),
		})
	}
	sort.SliceStable(p.ops, func(a, b int) bool { return p.ops[a].Due < p.ops[b].Due })
	// The warm-up is closed-loop and ignores the due times.
	p.warm = append(primeOps(p), p.ops[:warmCount(n)]...)
	finishHTTP(p)
	return p
}

// poissonSchedule returns n seeded arrival offsets of a Poisson process of
// the given rate, conditioned on the n-th arrival falling at n/rate: the
// exponential gaps are rescaled to that span, which is the distribution of a
// Poisson process given its count. Every seed then offers exactly the same
// load over exactly the same time, so throughput is pinned and only latency
// varies.
func poissonSchedule(seed int64, n int, rate float64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	at := make([]float64, n)
	t := 0.0
	for i := range at {
		t += rng.ExpFloat64()
		at[i] = t
	}
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(at[i] / t * float64(n) / rate * float64(time.Second))
	}
	return out
}

// buildPlan sizes and builds a workload for a seed: the measured list holds
// opsPerSecond × seconds × scale operations, at least minOps.
// minOps is the shortest measured list: enough for every class of a mix to
// appear in a smoke run.
const minOps = 20

func buildPlan(s *spec, seed int64, seconds, scale float64) *plan {
	n := int(math.Round(s.opsPerSecond * seconds * scale))
	if n < minOps {
		n = minOps
	}
	p := s.build(seed, n)
	p.spec = s
	p.dataScale = 1
	return p
}
