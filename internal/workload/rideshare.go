// Package workload generates the synthetic datasets and query corpora the
// experiments run on, substituting for the paper's proprietary resources:
// a rideshare database standing in for the Uber production tables, a
// TPC-H-shaped database for the Section 5.2.1 benchmark, a bounded-degree
// directed graph for the Section 3.4 triangle example, and seeded SQL query
// corpora whose feature mixes match the Section 2 study percentages.
package workload

import (
	"fmt"
	"math/rand"

	"flexdp/internal/engine"
)

// RideshareConfig sizes the rideshare dataset. Join-key skew is Zipf so the
// max-frequency metrics behave like production data.
type RideshareConfig struct {
	Seed    int64
	Cities  int
	Drivers int
	Users   int
	Trips   int
	Days    int // trip dates range over [0, Days)
}

// DefaultRideshare is a laptop-scale configuration large enough to show the
// error-vs-population trends.
func DefaultRideshare() RideshareConfig {
	return RideshareConfig{Seed: 1, Cities: 40, Drivers: 1200, Users: 3000, Trips: 60000, Days: 90}
}

// Rideshare statuses and products.
var (
	tripStatuses = []string{"completed", "completed", "completed", "completed", "canceled", "driver_canceled"}
	products     = []string{"uberx", "uberx", "uberx", "pool", "black", "motorbike"}
	vehicles     = []string{"sedan", "suv", "motorbike", "van"}
)

// GenerateRideshare builds the rideshare database:
//
//	cities(id, name, region)                         — public metadata
//	drivers(id, name, home_city, vehicle, signup_day, completed_trips, active)
//	users(id, city_id, signup_day, active)
//	trips(id, driver_id, rider_id, city_id, day, fare, status, product)
//	user_tags(user_id, tag, day)
//	analytics(driver_id, city_id, completed_trips, rating)
func GenerateRideshare(cfg RideshareConfig) *engine.DB {
	rng := rand.New(rand.NewSource(cfg.Seed))
	db := engine.NewDB()

	db.MustCreateTable("cities", []engine.Column{
		{Name: "id", Type: engine.KindInt},
		{Name: "name", Type: engine.KindString},
		{Name: "region", Type: engine.KindString},
	})
	regions := []string{"na", "emea", "apac", "latam"}
	for i := 0; i < cfg.Cities; i++ {
		mustInsert(db, "cities", []engine.Value{
			engine.NewInt(int64(i + 1)),
			engine.NewString(fmt.Sprintf("city_%d", i+1)),
			engine.NewString(regions[i%len(regions)]),
		})
	}

	db.MustCreateTable("drivers", []engine.Column{
		{Name: "id", Type: engine.KindInt},
		{Name: "name", Type: engine.KindString},
		{Name: "home_city", Type: engine.KindInt},
		{Name: "vehicle", Type: engine.KindString},
		{Name: "signup_day", Type: engine.KindInt},
		{Name: "completed_trips", Type: engine.KindInt},
		{Name: "active", Type: engine.KindBool},
	})
	// City popularity is Zipf-skewed: a few mega-cities dominate.
	cityZipf := rand.NewZipf(rng, 1.3, 1, uint64(cfg.Cities-1))
	driverCity := make([]int64, cfg.Drivers)
	for i := 0; i < cfg.Drivers; i++ {
		driverCity[i] = int64(cityZipf.Uint64() + 1)
		mustInsert(db, "drivers", []engine.Value{
			engine.NewInt(int64(i + 1)),
			engine.NewString(fmt.Sprintf("driver_%d", i+1)),
			engine.NewInt(driverCity[i]),
			engine.NewString(vehicles[rng.Intn(len(vehicles))]),
			engine.NewInt(int64(rng.Intn(cfg.Days))),
			engine.NewInt(0), // filled after trips are generated
			engine.NewBool(rng.Float64() < 0.8),
		})
	}

	db.MustCreateTable("users", []engine.Column{
		{Name: "id", Type: engine.KindInt},
		{Name: "city_id", Type: engine.KindInt},
		{Name: "signup_day", Type: engine.KindInt},
		{Name: "active", Type: engine.KindBool},
	})
	for i := 0; i < cfg.Users; i++ {
		mustInsert(db, "users", []engine.Value{
			engine.NewInt(int64(i + 1)),
			engine.NewInt(int64(cityZipf.Uint64() + 1)),
			engine.NewInt(int64(rng.Intn(cfg.Days))),
			engine.NewBool(rng.Float64() < 0.9),
		})
	}

	db.MustCreateTable("trips", []engine.Column{
		{Name: "id", Type: engine.KindInt},
		{Name: "driver_id", Type: engine.KindInt},
		{Name: "rider_id", Type: engine.KindInt},
		{Name: "city_id", Type: engine.KindInt},
		{Name: "day", Type: engine.KindInt},
		{Name: "fare", Type: engine.KindFloat},
		{Name: "status", Type: engine.KindString},
		{Name: "product", Type: engine.KindString},
	})
	// Driver activity mixes a uniform base with a Zipf tail of power
	// drivers, keeping mf(trips.driver_id) around 0.2-0.5% of trips — the
	// mf-to-population ratio the paper's sampled production tables exhibit
	// (a uniform 0.075% row sample shrinks each driver's trip count
	// proportionally).
	driverZipf := rand.NewZipf(rng, 1.8, 80, uint64(cfg.Drivers-1))
	riderZipf := rand.NewZipf(rng, 1.6, 60, uint64(cfg.Users-1))
	completed := make(map[int64]int64)
	for i := 0; i < cfg.Trips; i++ {
		var d int64
		if rng.Float64() < 0.85 {
			d = int64(rng.Intn(cfg.Drivers) + 1)
		} else {
			d = int64(driverZipf.Uint64() + 1)
		}
		status := tripStatuses[rng.Intn(len(tripStatuses))]
		if status == "completed" {
			completed[d]++
		}
		mustInsert(db, "trips", []engine.Value{
			engine.NewInt(int64(i + 1)),
			engine.NewInt(d),
			engine.NewInt(int64(riderZipf.Uint64() + 1)),
			engine.NewInt(tripCity(rng, driverCity[d-1], cfg.Cities)),
			engine.NewInt(int64(rng.Intn(cfg.Days))),
			engine.NewFloat(2 + rng.ExpFloat64()*12),
			engine.NewString(status),
			engine.NewString(products[rng.Intn(len(products))]),
		})
	}
	// Backfill drivers.completed_trips (functional metadata, not a join key).
	drv := db.Table("drivers")
	for i := range drv.Rows {
		id := drv.Rows[i][0].Int
		drv.Rows[i][5] = engine.NewInt(completed[id])
	}

	db.MustCreateTable("user_tags", []engine.Column{
		{Name: "user_id", Type: engine.KindInt},
		{Name: "tag", Type: engine.KindString},
		{Name: "day", Type: engine.KindInt},
	})
	tags := []string{"duplicate_account", "fraud_review", "vip", "promo_abuse"}
	for i := 0; i < cfg.Users/4; i++ {
		mustInsert(db, "user_tags", []engine.Value{
			engine.NewInt(int64(rng.Intn(cfg.Users) + 1)),
			engine.NewString(tags[rng.Intn(len(tags))]),
			engine.NewInt(int64(rng.Intn(cfg.Days))),
		})
	}

	db.MustCreateTable("analytics", []engine.Column{
		{Name: "driver_id", Type: engine.KindInt},
		{Name: "city_id", Type: engine.KindInt},
		{Name: "completed_trips", Type: engine.KindInt},
		{Name: "rating", Type: engine.KindFloat},
	})
	for i := 0; i < cfg.Drivers; i++ {
		id := int64(i + 1)
		mustInsert(db, "analytics", []engine.Value{
			engine.NewInt(id),
			engine.NewInt(driverCity[i]),
			engine.NewInt(completed[id]),
			engine.NewFloat(3.5 + rng.Float64()*1.5),
		})
	}
	return db
}

// tripCity places most trips in the driver's home city with a minority in
// other cities (so queries relating trip city to driver enrollment city are
// non-empty, as in the paper's Table 5 program 1).
func tripCity(rng *rand.Rand, home int64, cities int) int64 {
	if rng.Float64() < 0.8 {
		return home
	}
	return int64(rng.Intn(cities) + 1)
}

// RidesharePublicTables lists the non-protected tables (Section 3.6: city
// data is publicly known).
func RidesharePublicTables() []string { return []string{"cities"} }

// mustInsert inserts one generated row. The generator controls every schema
// and value, so a failed insert is a generator bug and fails loudly.
func mustInsert(db *engine.DB, table string, row []engine.Value) {
	if err := db.Insert(table, row); err != nil {
		panic(fmt.Sprintf("workload: rideshare %s insert: %v", table, err))
	}
}
