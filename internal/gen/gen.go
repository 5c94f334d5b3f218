// Package gen implements the synthetic training-database generator of
// Agrawal, Imielinski and Swami ("Database mining: a performance
// perspective", IEEE TKDE 1993) used by the BOAT, SPRINT, PUBLIC and
// RainForest performance studies, including the ten classification
// functions, label noise, and extra non-predictive attributes.
//
// Sources generate tuples deterministically from a seed on every scan, so
// a dataset never needs to be materialized (mirroring BOAT's ability to
// mine trees from training databases defined by queries); data.WriteFile
// can still persist a generated dataset to the paper's 40-byte binary
// records.
//
// All attribute values are integers (drawn uniformly from integer ranges),
// which keeps AVC-set sizes bounded — as in the RainForest evaluation — and
// makes every value exactly representable in both file encodings.
package gen

import (
	"fmt"
	"math/rand"

	"github.com/boatml/boat/internal/data"
)

// Attribute indexes of the 9-attribute Agrawal schema.
const (
	AttrSalary     = 0 // numeric, uniform 20000..150000
	AttrCommission = 1 // numeric, 0 if salary >= 75000, else uniform 10000..75000
	AttrAge        = 2 // numeric, uniform 20..80
	AttrElevel     = 3 // categorical, 5 education levels
	AttrCar        = 4 // categorical, 20 makes
	AttrZipcode    = 5 // categorical, 9 zipcodes
	AttrHvalue     = 6 // numeric, uniform 50000*k..150000*k, k = zipcode+1
	AttrHyears     = 7 // numeric, uniform 1..30
	AttrLoan       = 8 // numeric, uniform 0..500000
	baseAttrs      = 9
)

// Class labels: the generator's "group A" and "group B".
const (
	GroupA = 0
	GroupB = 1
)

// Config selects the workload.
type Config struct {
	// Function is the Agrawal classification function, 1..10.
	Function int
	// Noise is the probability that a generated label is flipped
	// (the paper's "percentage of noise in the data", Figures 7-9).
	Noise float64
	// ExtraAttrs adds this many non-predictive numeric attributes with
	// uniform random values in 0..100000 (Figures 10-11).
	ExtraAttrs int
	// Shifted, valid with Function 1, changes the underlying distribution
	// in the part of the attribute space with salary >= 100000 (used for
	// the dynamic-environment experiment of Figure 14): there, group A
	// requires age < 30 or age >= 70 instead of age < 40 or age >= 60.
	Shifted bool
}

func (c Config) validate() error {
	if c.Function < 1 || c.Function > 10 {
		return fmt.Errorf("gen: function %d out of range 1..10", c.Function)
	}
	if c.Noise < 0 || c.Noise > 1 {
		return fmt.Errorf("gen: noise %v out of range [0,1]", c.Noise)
	}
	if c.ExtraAttrs < 0 {
		return fmt.Errorf("gen: negative extra attributes %d", c.ExtraAttrs)
	}
	if c.Shifted && c.Function != 1 {
		return fmt.Errorf("gen: shifted distribution is only defined for function 1")
	}
	return nil
}

// Schema returns the generator schema with the given number of extra
// random attributes appended.
func Schema(extraAttrs int) *data.Schema {
	attrs := []data.Attribute{
		{Name: "salary", Kind: data.Numeric},
		{Name: "commission", Kind: data.Numeric},
		{Name: "age", Kind: data.Numeric},
		{Name: "elevel", Kind: data.Categorical, Cardinality: 5},
		{Name: "car", Kind: data.Categorical, Cardinality: 20},
		{Name: "zipcode", Kind: data.Categorical, Cardinality: 9},
		{Name: "hvalue", Kind: data.Numeric},
		{Name: "hyears", Kind: data.Numeric},
		{Name: "loan", Kind: data.Numeric},
	}
	for i := 0; i < extraAttrs; i++ {
		attrs = append(attrs, data.Attribute{
			Name: fmt.Sprintf("extra%d", i+1),
			Kind: data.Numeric,
		})
	}
	return data.MustSchema(attrs, 2)
}

// uniformInt draws an integer uniformly from [lo, hi].
func uniformInt(rng *rand.Rand, lo, hi int64) float64 {
	return float64(lo + rng.Int63n(hi-lo+1))
}

// fillPredictors fills the 9 base attributes plus extras of t.
func fillPredictors(rng *rand.Rand, vals []float64) {
	vals[AttrSalary] = uniformInt(rng, 20000, 150000)
	if vals[AttrSalary] >= 75000 {
		vals[AttrCommission] = 0
	} else {
		vals[AttrCommission] = uniformInt(rng, 10000, 75000)
	}
	vals[AttrAge] = uniformInt(rng, 20, 80)
	vals[AttrElevel] = float64(rng.Intn(5))
	vals[AttrCar] = float64(rng.Intn(20))
	vals[AttrZipcode] = float64(rng.Intn(9))
	k := int64(vals[AttrZipcode]) + 1
	vals[AttrHvalue] = uniformInt(rng, 50000*k, 150000*k)
	vals[AttrHyears] = uniformInt(rng, 1, 30)
	vals[AttrLoan] = uniformInt(rng, 0, 500000)
	for i := baseAttrs; i < len(vals); i++ {
		vals[i] = uniformInt(rng, 0, 100000)
	}
}

// Label computes the noise-free group of a tuple under the config's
// classification function. Exported for tests and for measuring
// misclassification rates against the true concept.
func Label(cfg Config, t data.Tuple) int {
	v := t.Values
	salary := v[AttrSalary]
	commission := v[AttrCommission]
	age := v[AttrAge]
	elevel := int(v[AttrElevel])
	hvalue := v[AttrHvalue]
	hyears := v[AttrHyears]
	loan := v[AttrLoan]

	groupIf := func(b bool) int {
		if b {
			return GroupA
		}
		return GroupB
	}
	between := func(x, lo, hi float64) bool { return lo <= x && x <= hi }

	switch cfg.Function {
	case 1:
		if cfg.Shifted && salary >= 100000 {
			return groupIf(age < 30 || age >= 70)
		}
		return groupIf(age < 40 || age >= 60)
	case 2:
		switch {
		case age < 40:
			return groupIf(between(salary, 50000, 100000))
		case age < 60:
			return groupIf(between(salary, 75000, 125000))
		default:
			return groupIf(between(salary, 25000, 75000))
		}
	case 3:
		switch {
		case age < 40:
			return groupIf(elevel <= 1)
		case age < 60:
			return groupIf(elevel >= 1 && elevel <= 3)
		default:
			return groupIf(elevel >= 2)
		}
	case 4:
		switch {
		case age < 40:
			if elevel <= 1 {
				return groupIf(between(salary, 25000, 75000))
			}
			return groupIf(between(salary, 50000, 100000))
		case age < 60:
			if elevel >= 1 && elevel <= 3 {
				return groupIf(between(salary, 50000, 100000))
			}
			return groupIf(between(salary, 75000, 125000))
		default:
			if elevel >= 2 {
				return groupIf(between(salary, 50000, 100000))
			}
			return groupIf(between(salary, 25000, 75000))
		}
	case 5:
		switch {
		case age < 40:
			if between(salary, 50000, 100000) {
				return groupIf(between(loan, 100000, 300000))
			}
			return groupIf(between(loan, 200000, 400000))
		case age < 60:
			if between(salary, 75000, 125000) {
				return groupIf(between(loan, 200000, 400000))
			}
			return groupIf(between(loan, 300000, 500000))
		default:
			if between(salary, 25000, 75000) {
				return groupIf(between(loan, 300000, 500000))
			}
			return groupIf(between(loan, 100000, 300000))
		}
	case 6:
		total := salary + commission
		switch {
		case age < 40:
			return groupIf(between(total, 50000, 100000))
		case age < 60:
			return groupIf(between(total, 75000, 125000))
		default:
			return groupIf(between(total, 25000, 75000))
		}
	case 7:
		disposable := (2.0/3.0)*(salary+commission) - loan/5 - 20000
		return groupIf(disposable > 0)
	case 8:
		disposable := (2.0/3.0)*(salary+commission) - 5000*float64(elevel) - 20000
		return groupIf(disposable > 0)
	case 9:
		disposable := (2.0/3.0)*(salary+commission) - 5000*float64(elevel) - loan/5 - 10000
		return groupIf(disposable > 0)
	case 10:
		// Home equity accrues once the house is held for 20 years. The
		// disposable-income constant is chosen so both groups are
		// well-represented under the generator's attribute distributions
		// (~34% group A), matching the balanced-workload spirit of
		// [AIS93].
		equity := 0.0
		if hyears >= 20 {
			equity = hvalue * (hyears - 20) / 10
		}
		disposable := (2.0/3.0)*(salary+commission) - 5000*float64(elevel) + equity/5 - 80000
		return groupIf(disposable > 0)
	default:
		panic(fmt.Sprintf("gen: function %d", cfg.Function))
	}
}

// Source is a deterministic, re-scannable generated training database.
type Source struct {
	cfg    Config
	schema *data.Schema
	n      int64
	seed   int64
}

// NewSource creates a generated dataset of n tuples. Scanning it twice
// yields identical tuples.
func NewSource(cfg Config, n int64, seed int64) (*Source, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("gen: negative size %d", n)
	}
	return &Source{cfg: cfg, schema: Schema(cfg.ExtraAttrs), n: n, seed: seed}, nil
}

// MustSource is NewSource panicking on error (for tests/benchmarks).
func MustSource(cfg Config, n int64, seed int64) *Source {
	s, err := NewSource(cfg, n, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Schema implements data.Source.
func (s *Source) Schema() *data.Schema { return s.schema }

// Count implements data.Source.
func (s *Source) Count() (int64, bool) { return s.n, true }

// Config returns the generator configuration.
func (s *Source) Config() Config { return s.cfg }

// Scan implements data.Source.
func (s *Source) Scan() (data.Scanner, error) { return data.ScanRows(s) }

// ScanChunks implements data.Source: rows are generated one at a time,
// in stream order, straight into the destination chunk.
func (s *Source) ScanChunks() (data.ChunkScanner, error) {
	rng := rand.New(rand.NewSource(s.seed))
	return data.GeneratedScan(s.n, len(s.schema.Attributes), func(t *data.Tuple) {
		fillPredictors(rng, t.Values)
		t.Class = Label(s.cfg, *t)
		if s.cfg.Noise > 0 && rng.Float64() < s.cfg.Noise {
			t.Class = 1 - t.Class
		}
	}), nil
}
