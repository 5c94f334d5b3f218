// Package warehouse models the data-warehousing scenario of the paper's
// introduction: the training database is defined by a star-join query
// over a fact table and dimension tables, and is never materialized —
// BOAT only needs sequential scans and random samples of the join result
// (Section 1: "BOAT enables mining of decision trees from any star-join
// query without materializing the training set").
//
// The star schema is a retail-fraud setting: a purchases fact stream
// joins customer and product dimension tables; the training view projects
// customer demographics, product features and transaction attributes,
// labeled by a hidden fraud concept. The view implements data.Source: its
// scans re-generate the fact stream and perform the joins on the fly, so
// repeated scans are deterministic and nothing is ever written out.
package warehouse

import (
	"fmt"
	"math/rand"

	"github.com/boatml/boat/internal/data"
)

// Dimension table rows.
type customer struct {
	age    float64 // 18..90
	income float64 // 15000..200000
	region int     // 0..7
}

type product struct {
	category int     // 0..11
	price    float64 // 5..2000
	risk     float64 // 0..9, hidden: drives the fraud concept
}

// Star is the warehouse: in-memory dimension tables plus a fact-stream
// definition. Dimension tables are small (they fit in memory, as in any
// real star schema); the fact table is streamed and joined on demand.
type Star struct {
	customers []customer
	products  []product
}

// NewStar builds dimension tables deterministically from a seed.
func NewStar(nCustomers, nProducts int, seed int64) (*Star, error) {
	if nCustomers < 1 || nProducts < 1 {
		return nil, fmt.Errorf("warehouse: need at least one customer and product, got %d/%d",
			nCustomers, nProducts)
	}
	rng := rand.New(rand.NewSource(seed))
	s := &Star{
		customers: make([]customer, nCustomers),
		products:  make([]product, nProducts),
	}
	for i := range s.customers {
		s.customers[i] = customer{
			age:    float64(18 + rng.Intn(73)),
			income: float64(15000 + rng.Intn(185001)),
			region: rng.Intn(8),
		}
	}
	for i := range s.products {
		s.products[i] = product{
			category: rng.Intn(12),
			price:    float64(5 + rng.Intn(1996)),
			risk:     float64(rng.Intn(10)),
		}
	}
	return s, nil
}

// ViewSchema is the schema of the (virtual) training view:
//
//	SELECT c.age, c.income, c.region, p.category, p.price,
//	       f.channel, f.amount, label(f, c, p)
//	FROM facts f JOIN customers c ON ... JOIN products p ON ...
func ViewSchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "age", Kind: data.Numeric},
		{Name: "income", Kind: data.Numeric},
		{Name: "region", Kind: data.Categorical, Cardinality: 8},
		{Name: "category", Kind: data.Categorical, Cardinality: 12},
		{Name: "price", Kind: data.Numeric},
		{Name: "channel", Kind: data.Categorical, Cardinality: 3},
		{Name: "amount", Kind: data.Numeric},
	}, 2)
}

// Class labels of the fraud concept.
const (
	Legitimate = 0
	Fraud      = 1
)

// TrainingView returns the star-join training database of nFacts
// transactions. The returned Source is re-scannable and deterministic;
// each scan streams the fact table and performs the dimension joins on
// the fly.
func (s *Star) TrainingView(nFacts int64, seed int64) data.Source {
	return &viewSource{star: s, schema: ViewSchema(), n: nFacts, seed: seed}
}

// label is the hidden concept: a transaction is fraudulent when the
// amount is out of proportion to the customer's income, with risky
// product categories and the online channel held to stricter limits,
// plus a little label noise.
func label(rng *rand.Rand, c customer, p product, channel int, amount float64) int {
	limit := c.income / 8
	if p.risk >= 7 {
		limit /= 2
	}
	if channel == 2 { // online
		limit = limit * 3 / 4
	}
	out := Legitimate
	if amount > limit {
		out = Fraud
	}
	if rng.Float64() < 0.02 {
		out = 1 - out
	}
	return out
}

type viewSource struct {
	star   *Star
	schema *data.Schema
	n      int64
	seed   int64
}

func (v *viewSource) Schema() *data.Schema { return v.schema }
func (v *viewSource) Count() (int64, bool) { return v.n, true }

func (v *viewSource) Scan() (data.Scanner, error) { return data.ScanRows(v) }

// ScanChunks streams the fact table and joins each fact row with its
// dimensions straight into the destination chunk.
func (v *viewSource) ScanChunks() (data.ChunkScanner, error) {
	rng := rand.New(rand.NewSource(v.seed))
	star := v.star
	return data.GeneratedScan(v.n, len(v.schema.Attributes), func(t *data.Tuple) {
		// One fact-table row...
		cID := rng.Intn(len(star.customers))
		pID := rng.Intn(len(star.products))
		channel := rng.Intn(3)
		c := star.customers[cID]
		p := star.products[pID]
		// Spend correlates with income and price; integral amounts.
		amount := float64(int64(p.price)) + float64(rng.Int63n(int64(c.income)/4+1))
		// ...joined with its dimensions and labeled.
		t.Values[0] = c.age
		t.Values[1] = c.income
		t.Values[2] = float64(c.region)
		t.Values[3] = float64(p.category)
		t.Values[4] = p.price
		t.Values[5] = float64(channel)
		t.Values[6] = amount
		t.Class = label(rng, c, p, channel, amount)
	}), nil
}
