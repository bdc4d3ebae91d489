package main

import (
	"fmt"
	"strings"

	"flexdp/internal/engine"
	"flexdp/internal/workload"
)

// The oracle computes every workload query's true answer with plain Go loops
// over engine.Table.Rows. It shares no code with the executor — no parser,
// no plan, no kernels — only the stored rows and the schema's column names,
// so an engine bug cannot hide by being wrong twice.

// tables is the oracle's view of a database.
type tables struct{ db *engine.DB }

// answer is a query's true result: output column names and rows of
// bin labels (int64 or string) followed by counts. enumerated says the bins
// come from a registered public domain, so the released rows must be exactly
// these, in this order; otherwise the rows are a set.
type answer struct {
	cols       []string
	rows       []answerRow
	enumerated bool
}

type answerRow struct {
	bins []any
	vals []float64
}

func scalar(col string, n int) answer {
	return answer{cols: []string{col}, rows: []answerRow{{vals: []float64{float64(n)}}}}
}

// relation returns a table's rows and a column-position lookup.
func (t tables) relation(name string) ([][]engine.Value, func(string) int) {
	tab := t.db.Table(name)
	if tab == nil {
		panic("bench/e2e: oracle: no table " + name)
	}
	return tab.Rows, func(col string) int {
		i := tab.Schema.Index(col)
		if i < 0 {
			panic("bench/e2e: oracle: no column " + name + "." + col)
		}
		return i
	}
}

// countStar is the column name the engine gives COUNT(*) and COUNT(DISTINCT x).
const countStar = "count"

// cityDomain is the public bin domain of every city-id column: 1..Cities.
func cityDomain() []any {
	n := workload.DefaultRideshare().Cities
	out := make([]any, n)
	for i := range out {
		out[i] = int64(i + 1)
	}
	return out
}

// Rideshare small-table templates (server_hot, server_churn, server_open).

func (t tables) usersWindow(lo, hi, minID int64) answer {
	rows, col := t.relation("users")
	day, id := col("signup_day"), col("id")
	n := 0
	for _, r := range rows {
		if r[day].Int >= lo && r[day].Int < hi && r[id].Int > minID {
			n++
		}
	}
	return scalar(countStar, n)
}

func (t tables) driversFleet(vehicle string, day, trips, minID int64) answer {
	rows, col := t.relation("drivers")
	v, d, c, id := col("vehicle"), col("signup_day"), col("completed_trips"), col("id")
	n := 0
	for _, r := range rows {
		if r[v].Str == vehicle && r[d].Int >= day && r[c].Int >= trips && r[id].Int > minID {
			n++
		}
	}
	return scalar(countStar, n)
}

func (t tables) analyticsScan(rating float64, trips, minID int64) answer {
	rows, col := t.relation("analytics")
	r, c, id := col("rating"), col("completed_trips"), col("driver_id")
	n := 0
	for _, row := range rows {
		if row[r].Float >= rating && row[c].Int >= trips && row[id].Int > minID {
			n++
		}
	}
	return scalar(countStar, n)
}

func (t tables) ratedDrivers(rating float64, day, minID int64) answer {
	drivers, dcol := t.relation("drivers")
	analytics, acol := t.relation("analytics")
	did, dday := dcol("id"), dcol("signup_day")
	matching := make(map[int64]int) // driver id → drivers rows passing the filter
	for _, r := range drivers {
		if r[dday].Int >= day && r[did].Int > minID {
			matching[r[did].Int]++
		}
	}
	aid, arating := acol("driver_id"), acol("rating")
	n := 0
	for _, r := range analytics {
		if r[arating].Float >= rating {
			n += matching[r[aid].Int]
		}
	}
	return scalar(countStar, n)
}

// citiesIn returns the ids of the cities in a region.
func (t tables) citiesIn(region string) map[int64]int {
	cities, col := t.relation("cities")
	id, reg := col("id"), col("region")
	in := make(map[int64]int)
	for _, r := range cities {
		if r[reg].Str == region {
			in[r[id].Int]++
		}
	}
	return in
}

func (t tables) usersRegion(region string, day, minID int64) answer {
	in := t.citiesIn(region)
	users, col := t.relation("users")
	city, sday, id := col("city_id"), col("signup_day"), col("id")
	n := 0
	for _, r := range users {
		if r[sday].Int < day && r[id].Int > minID {
			n += in[r[city].Int]
		}
	}
	return scalar(countStar, n)
}

func (t tables) regionDrivers(region string, trips int64, rating float64) answer {
	in := t.citiesIn(region)
	analytics, acol := t.relation("analytics")
	aid, atrips, arating := acol("driver_id"), acol("completed_trips"), acol("rating")
	rated := make(map[int64]int)
	for _, r := range analytics {
		if r[atrips].Int >= trips && r[arating].Float >= rating {
			rated[r[aid].Int]++
		}
	}
	drivers, dcol := t.relation("drivers")
	did, home := dcol("id"), dcol("home_city")
	n := 0
	for _, r := range drivers {
		n += rated[r[did].Int] * in[r[home].Int]
	}
	return scalar(countStar, n)
}

// cityHistogram counts a table's rows per city column over the enumerated
// city domain, zero-filling absent cities.
func (t tables) cityHistogram(table, column string) answer {
	rows, col := t.relation(table)
	c := col(column)
	counts := make(map[int64]int)
	for _, r := range rows {
		counts[r[c].Int]++
	}
	a := answer{cols: []string{column, countStar}, enumerated: true}
	for _, city := range cityDomain() {
		a.rows = append(a.rows, answerRow{bins: []any{city}, vals: []float64{float64(counts[city.(int64)])}})
	}
	return a
}

// Trips-scale templates (the rideshare experiment corpus and server_open's
// heavy classes).

// tripCols are the trips column positions the corpus filters read.
type tripCols struct{ driver, city, day, status, product int }

func (t tables) countTrips(keep func(r []engine.Value, c tripCols) bool) answer {
	rows, col := t.relation("trips")
	c := tripCols{driver: col("driver_id"), city: col("city_id"), day: col("day"),
		status: col("status"), product: col("product")}
	n := 0
	for _, r := range rows {
		if keep(r, c) {
			n++
		}
	}
	return scalar(countStar, n)
}

func (t tables) tripsActiveDrivers(day int64) answer {
	drivers, dcol := t.relation("drivers")
	did, active := dcol("id"), dcol("active")
	isActive := make(map[int64]int)
	for _, r := range drivers {
		if r[active].Bool {
			isActive[r[did].Int]++
		}
	}
	trips, col := t.relation("trips")
	drv, tday := col("driver_id"), col("day")
	n := 0
	for _, r := range trips {
		if r[tday].Int >= day {
			n += isActive[r[drv].Int]
		}
	}
	return scalar(countStar, n)
}

func (t tables) tripsRegion(region string, day int64) answer {
	in := t.citiesIn(region)
	trips, col := t.relation("trips")
	city, tday := col("city_id"), col("day")
	n := 0
	for _, r := range trips {
		if r[tday].Int >= day {
			n += in[r[city].Int]
		}
	}
	return scalar(countStar, n)
}

func (t tables) tripsTagDays(cityID int64) answer {
	tags, gcol := t.relation("user_tags")
	gday := gcol("day")
	perDay := make(map[int64]int)
	for _, r := range tags {
		perDay[r[gday].Int]++
	}
	trips, col := t.relation("trips")
	city, tday := col("city_id"), col("day")
	n := 0
	for _, r := range trips {
		if r[city].Int == cityID {
			n += perDay[r[tday].Int]
		}
	}
	return scalar(countStar, n)
}

func (t tables) tripsPerDriver(cityID int64) answer {
	trips, col := t.relation("trips")
	city, drv := col("city_id"), col("driver_id")
	counts := make(map[int64]int)
	for _, r := range trips {
		if r[city].Int == cityID {
			counts[r[drv].Int]++
		}
	}
	a := answer{cols: []string{"driver_id", countStar}}
	for id, n := range counts {
		a.rows = append(a.rows, answerRow{bins: []any{id}, vals: []float64{float64(n)}})
	}
	return a
}

// corpusQuery attaches the oracle to one query of the rideshare experiment
// corpus. The corpus generator emits only SQL text, so the literals are read
// back out of it with the generator's own format strings; an unknown
// template or a literal that does not scan is a harness bug and panics.
func corpusQuery(q workload.ExpQuery) query {
	out := query{SQL: q.SQL, Class: q.Description}
	scan := func(format string, args ...any) {
		if n, err := fmt.Sscanf(q.SQL, format, args...); err != nil || n != len(args) {
			panic(fmt.Sprintf("bench/e2e: corpus query %q does not match template %q: %v", q.SQL, format, err))
		}
	}
	unquote := func(s string) string { return strings.Trim(s, "'") }
	switch q.Description {
	case "all trips":
		out.Want = func(t tables) answer {
			return t.countTrips(func([]engine.Value, tripCols) bool { return true })
		}
	case "trips in a day window":
		var lo, hi int64
		scan("SELECT COUNT(*) FROM trips WHERE day >= %d AND day < %d", &lo, &hi)
		out.Want = func(t tables) answer {
			return t.countTrips(func(r []engine.Value, c tripCols) bool {
				return r[c.day].Int >= lo && r[c.day].Int < hi
			})
		}
	case "trips in one city":
		var c int64
		scan("SELECT COUNT(*) FROM trips WHERE city_id = %d", &c)
		out.Want = func(t tables) answer {
			return t.countTrips(func(r []engine.Value, tc tripCols) bool { return r[tc.city].Int == c })
		}
	case "trips of one driver":
		var d int64
		scan("SELECT COUNT(*) FROM trips WHERE driver_id = %d", &d)
		out.Want = func(t tables) answer {
			return t.countTrips(func(r []engine.Value, tc tripCols) bool { return r[tc.driver].Int == d })
		}
	case "promotion success in a small slice":
		var c, lo, hi int64
		scan("SELECT COUNT(*) FROM trips WHERE city_id = %d AND day >= %d AND day < %d AND product = 'pool' AND status = 'completed'",
			&c, &lo, &hi)
		out.Want = func(t tables) answer {
			return t.countTrips(func(r []engine.Value, tc tripCols) bool {
				return r[tc.city].Int == c && r[tc.day].Int >= lo && r[tc.day].Int < hi &&
					r[tc.product].Str == "pool" && r[tc.status].Str == "completed"
			})
		}
	case "trips by active drivers":
		var day int64
		scan("SELECT COUNT(*) FROM trips t JOIN drivers d ON t.driver_id = d.id WHERE d.active = TRUE AND t.day >= %d", &day)
		out.Want = func(t tables) answer { return t.tripsActiveDrivers(day) }
	case "trips by region via public cities":
		var region string
		scan("SELECT COUNT(*) FROM trips t JOIN cities c ON t.city_id = c.id WHERE c.region = %s", &region)
		region = unquote(region)
		out.Want = func(t tables) answer { return t.tripsRegion(region, 0) }
	case "tag activity coinciding with trips":
		var c int64
		scan("SELECT COUNT(*) FROM trips t JOIN user_tags g ON t.day = g.day WHERE t.city_id = %d", &c)
		out.Want = func(t tables) answer { return t.tripsTagDays(c) }
	case "daily trips by city":
		out.Want = func(t tables) answer { return t.cityHistogram("trips", "city_id") }
	case "trips per driver":
		var c int64
		scan("SELECT driver_id, COUNT(*) FROM trips WHERE city_id = %d GROUP BY driver_id", &c)
		out.Want = func(t tables) answer { return t.tripsPerDriver(c) }
	default:
		panic("bench/e2e: no oracle for corpus template " + q.Description)
	}
	return out
}

// groupCounts turns a label → count map into unordered answer rows.
func groupCounts(cols []string, counts map[string]int) answer {
	a := answer{cols: cols}
	for label, n := range counts {
		bins := make([]any, 0, len(cols)-1)
		for _, part := range strings.Split(label, "\x00") {
			bins = append(bins, part)
		}
		a.rows = append(a.rows, answerRow{bins: bins, vals: []float64{float64(n)}})
	}
	return a
}

// tpchQuery attaches the oracle to one of the five Table-3 TPC-H queries.
// No bin domains are registered for TPC-H, so every answer is a set of
// observed groups.
func tpchQuery(q workload.TPCHQuery) query {
	out := query{SQL: q.SQL, Class: q.ID}
	switch q.ID {
	case "Q1":
		out.Want = func(t tables) answer {
			rows, col := t.relation("lineitem")
			ship, flag, status := col("shipdate"), col("returnflag"), col("linestatus")
			counts := make(map[string]int)
			for _, r := range rows {
				if r[ship].Int <= 2400 {
					counts[r[flag].Str+"\x00"+r[status].Str]++
				}
			}
			return groupCounts([]string{"returnflag", "linestatus", countStar}, counts)
		}
	case "Q4":
		out.Want = func(t tables) answer {
			rows, col := t.relation("orders")
			date, prio := col("orderdate"), col("orderpriority")
			counts := make(map[string]int)
			for _, r := range rows {
				if r[date].Int >= 800 && r[date].Int < 892 {
					counts[r[prio].Str]++
				}
			}
			return groupCounts([]string{"orderpriority", countStar}, counts)
		}
	case "Q13":
		out.Want = func(t tables) answer {
			orders, ocol := t.relation("orders")
			ocust, price := ocol("custkey"), ocol("totalprice")
			big := make(map[int64]int) // custkey → orders above the price
			for _, r := range orders {
				if r[price].Float > 5000 {
					big[r[ocust].Int]++
				}
			}
			customers, ccol := t.relation("customer")
			ckey, seg := ccol("custkey"), ccol("mktsegment")
			counts := make(map[string]int)
			for _, r := range customers {
				if n := big[r[ckey].Int]; n > 0 {
					counts[r[seg].Str] += n
				}
			}
			return groupCounts([]string{"mktsegment", countStar}, counts)
		}
	case "Q16":
		out.Want = func(t tables) answer {
			parts, pcol := t.relation("part")
			pkey, ptype, size := pcol("partkey"), pcol("type"), pcol("size")
			typesOf := make(map[int64][]string) // partkey → types of qualifying part rows
			for _, r := range parts {
				if r[size].Int >= 10 {
					typesOf[r[pkey].Int] = append(typesOf[r[pkey].Int], r[ptype].Str)
				}
			}
			partsupp, scol := t.relation("partsupp")
			spart, ssupp := scol("partkey"), scol("suppkey")
			suppliers := make(map[string]map[int64]bool) // type → distinct suppkeys
			for _, r := range partsupp {
				for _, typ := range typesOf[r[spart].Int] {
					if suppliers[typ] == nil {
						suppliers[typ] = make(map[int64]bool)
					}
					suppliers[typ][r[ssupp].Int] = true
				}
			}
			counts := make(map[string]int)
			for typ, set := range suppliers {
				counts[typ] = len(set)
			}
			return groupCounts([]string{"type", countStar}, counts)
		}
	case "Q21":
		out.Want = func(t tables) answer {
			nations, ncol := t.relation("nation")
			nkey, nname := ncol("nationkey"), ncol("name")
			namesOf := make(map[int64][]string)
			for _, r := range nations {
				namesOf[r[nkey].Int] = append(namesOf[r[nkey].Int], r[nname].Str)
			}
			suppliers, scol := t.relation("supplier")
			skey, snation := scol("suppkey"), scol("nationkey")
			nationsOf := make(map[int64][]string) // suppkey → nation names, one per supplier row
			for _, r := range suppliers {
				nationsOf[r[skey].Int] = append(nationsOf[r[skey].Int], namesOf[r[snation].Int]...)
			}
			orders, ocol := t.relation("orders")
			okey, ostatus := ocol("orderkey"), ocol("orderstatus")
			finished := make(map[int64]int)
			for _, r := range orders {
				if r[ostatus].Str == "F" {
					finished[r[okey].Int]++
				}
			}
			lineitem, lcol := t.relation("lineitem")
			lorder, lsupp, receipt, commit := lcol("orderkey"), lcol("suppkey"), lcol("receiptdate"), lcol("commitdate")
			counts := make(map[string]int)
			for _, r := range lineitem {
				if r[receipt].Int <= r[commit].Int {
					continue
				}
				if n := finished[r[lorder].Int]; n > 0 {
					for _, name := range nationsOf[r[lsupp].Int] {
						counts[name] += n
					}
				}
			}
			return groupCounts([]string{"name", countStar}, counts)
		}
	default:
		panic("bench/e2e: no oracle for TPC-H query " + q.ID)
	}
	return out
}

// binKey renders bin labels comparably whether they arrive as Go values
// (library results: int64, string) or through JSON (float64, string).
func binKey(bins []any) string {
	parts := make([]string, len(bins))
	for i, b := range bins {
		switch x := b.(type) {
		case int64:
			parts[i] = fmt.Sprintf("i%d", x)
		case float64:
			parts[i] = fmt.Sprintf("i%d", int64(x))
		case string:
			parts[i] = "s" + x
		default:
			parts[i] = fmt.Sprintf("?%v", b)
		}
	}
	return strings.Join(parts, "\x00")
}

// released is a result as the caller saw it, from either surface.
type released struct {
	cols       []string
	bins       [][]any
	vals       [][]float64 // TrueRows (library) or noisy values (HTTP)
	enumerated bool
}

// check compares a released result against the oracle's answer. tolerance
// is 0 for library results, whose TrueRows must match exactly, and the
// allowed |noisy − true| for HTTP results.
func (a answer) check(got released, tolerance float64) error {
	if len(got.cols) != len(a.cols) {
		return fmt.Errorf("%d columns %v, want %v", len(got.cols), got.cols, a.cols)
	}
	for i, c := range a.cols {
		if !strings.EqualFold(got.cols[i], c) {
			return fmt.Errorf("column %d is %q, want %q", i, got.cols[i], c)
		}
	}
	if got.enumerated != a.enumerated {
		return fmt.Errorf("bins enumerated = %t, want %t", got.enumerated, a.enumerated)
	}
	if len(got.vals) != len(a.rows) || len(got.bins) != len(a.rows) {
		return fmt.Errorf("%d rows, want %d", len(got.vals), len(a.rows))
	}
	want := a.rows
	order := make([]int, len(want)) // got row i ↔ want row order[i]
	if a.enumerated || len(want) <= 1 {
		for i := range order {
			order[i] = i
		}
	} else {
		byKey := make(map[string]int, len(want))
		for i, r := range want {
			byKey[binKey(r.bins)] = i
		}
		for i, bins := range got.bins {
			j, ok := byKey[binKey(bins)]
			if !ok {
				return fmt.Errorf("unexpected bin %v", bins)
			}
			delete(byKey, binKey(bins))
			order[i] = j
		}
	}
	for i, j := range order {
		if binKey(got.bins[i]) != binKey(want[j].bins) {
			return fmt.Errorf("row %d has bin %v, want %v", i, got.bins[i], want[j].bins)
		}
		if len(got.vals[i]) != len(want[j].vals) {
			return fmt.Errorf("row %d has %d values, want %d", i, len(got.vals[i]), len(want[j].vals))
		}
		for k, v := range got.vals[i] {
			if d := v - want[j].vals[k]; d > tolerance || d < -tolerance || d != d {
				return fmt.Errorf("row %d value %d is %g, true answer %g (tolerance %g)", i, k, v, want[j].vals[k], tolerance)
			}
		}
	}
	return nil
}
