package split

import (
	"math"
	"slices"
	"sort"

	"github.com/boatml/boat/internal/data"
)

// NumericAVC is the AVC-set (Attribute-Value, Class-label counts) of one
// numeric predictor attribute over a family of tuples, in ascending value
// order: Counts[i][j] is the number of tuples with value Values[i] and
// class j. Introduced by the RainForest framework [GRG98]; sufficient for
// exact impurity-based split selection on the attribute.
type NumericAVC struct {
	Values []float64
	Counts [][]int64
}

// Entries returns the number of distinct attribute values.
func (a *NumericAVC) Entries() int { return len(a.Values) }

// CatAVC is the AVC-set of one categorical attribute: Counts[c][j] is the
// number of tuples with category code c and class j. flat is the
// contiguous backing of Counts (flat[c*classes+j] == Counts[c][j]),
// addressed directly by AddBatch to skip the per-row double
// indirection.
type CatAVC struct {
	Counts [][]int64

	flat    []int64
	classes int
}

// Entries returns the domain cardinality.
func (a *CatAVC) Entries() int { return len(a.Counts) }

// NewCatAVC allocates a zeroed categorical AVC-set.
func NewCatAVC(cardinality, classCount int) *CatAVC {
	counts := make([][]int64, cardinality)
	backing := make([]int64, cardinality*classCount)
	for c := range counts {
		counts[c] = backing[c*classCount : (c+1)*classCount]
	}
	return &CatAVC{Counts: counts, flat: backing, classes: classCount}
}

// Add registers w occurrences of (code, class); w may be negative for
// deletions in the dynamic environment.
func (a *CatAVC) Add(code, class int, w int64) { a.Counts[code][class] += w }

// AddBatch registers w occurrences (w may be negative: deletions in the
// dynamic environment) of (col[r], classes[r]) for every row r in idx, or
// for every row of col when idx is nil. It is exactly equivalent to
// calling Add(int(col[r]), int(classes[r]), w) per row; the batched form
// keeps the count matrix hot across a whole columnar chunk. Codes must be
// whole numbers in [0, cardinality), which the routers check per chunk.
func (a *CatAVC) AddBatch(col []float64, classes []int32, idx []int32, w int64) {
	flat, nc := a.flat, a.classes
	if idx == nil {
		cls := classes[:len(col)]
		for r, v := range col {
			flat[int(v)*nc+int(cls[r])] += w
		}
		return
	}
	for _, r := range idx {
		flat[int(col[r])*nc+int(classes[r])] += w
	}
}

// Reset zeroes all counts (used when a failed cleanup scan is restarted).
func (a *CatAVC) Reset() {
	for _, row := range a.Counts {
		for j := range row {
			row[j] = 0
		}
	}
}

// NodeStats is the AVC-group of a node: the AVC-sets of every predictor
// attribute plus the class totals of the family. It is the complete input
// to impurity-based split selection.
type NodeStats struct {
	Schema      *data.Schema
	ClassTotals []int64
	Num         []*NumericAVC // indexed by attribute; nil for categorical attributes
	Cat         []*CatAVC     // indexed by attribute; nil for numeric attributes
}

// Total returns the family size |F_n|.
func (s *NodeStats) Total() int64 {
	var n int64
	for _, v := range s.ClassTotals {
		n += v
	}
	return n
}

// Entries returns the total number of AVC entries in the group, the
// quantity RainForest's memory management is driven by.
func (s *NodeStats) Entries() int64 {
	var n int64
	for _, a := range s.Num {
		if a != nil {
			n += int64(a.Entries())
		}
	}
	for _, a := range s.Cat {
		if a != nil {
			n += int64(a.Entries())
		}
	}
	return n
}

// avcBuilder accumulates AVC-sets incrementally (used by the RainForest
// scans, where tuples arrive in file order).
type avcBuilder struct {
	schema      *data.Schema
	classTotals []int64
	num         []map[float64][]int64
	// nan holds the per-attribute class counts of NaN (missing) values,
	// kept out of the maps: a NaN map key is unreachable (NaN != NaN in
	// lookups), so each NaN Add would strand a fresh entry.
	nan [][]int64
	cat []*CatAVC
}

// NewAVCBuilder creates an empty accumulating AVC-group for a node.
func NewAVCBuilder(schema *data.Schema) *AVCBuilder {
	attrs := make([]int, len(schema.Attributes))
	for i := range attrs {
		attrs[i] = i
	}
	return NewAVCBuilderFor(schema, attrs)
}

// NewAVCBuilderFor creates an AVC builder restricted to a subset of
// attributes (used by RF-Vertical to process one attribute group per
// scan); other attributes are ignored by Add and absent from Stats.
func NewAVCBuilderFor(schema *data.Schema, attrs []int) *AVCBuilder {
	b := &AVCBuilder{avcBuilder{
		schema:      schema,
		classTotals: make([]int64, schema.ClassCount),
		num:         make([]map[float64][]int64, len(schema.Attributes)),
		nan:         make([][]int64, len(schema.Attributes)),
		cat:         make([]*CatAVC, len(schema.Attributes)),
	}}
	for _, i := range attrs {
		if schema.Attributes[i].Kind == data.Numeric {
			b.num[i] = make(map[float64][]int64)
		} else {
			b.cat[i] = NewCatAVC(schema.Attributes[i].Cardinality, schema.ClassCount)
		}
	}
	return b
}

// AVCBuilder incrementally accumulates the AVC-group of one node.
type AVCBuilder struct {
	avcBuilder
}

// Add registers one tuple.
func (b *AVCBuilder) Add(t data.Tuple) {
	b.classTotals[t.Class]++
	for i := range b.schema.Attributes {
		if m := b.num[i]; m != nil {
			v := t.Values[i]
			if v != v {
				if b.nan[i] == nil {
					b.nan[i] = make([]int64, b.schema.ClassCount)
				}
				b.nan[i][t.Class]++
				continue
			}
			row := m[v]
			if row == nil {
				row = make([]int64, b.schema.ClassCount)
				m[v] = row
			}
			row[t.Class]++
		} else if c := b.cat[i]; c != nil {
			c.Add(int(t.Values[i]), t.Class, 1)
		}
	}
}

// Entries returns the current AVC entry count (distinct numeric values
// seen plus categorical domain sizes).
func (b *AVCBuilder) Entries() int64 {
	var n int64
	for i, m := range b.num {
		if m != nil {
			n += int64(len(m))
			if b.nan[i] != nil {
				n++
			}
		}
	}
	for _, c := range b.cat {
		if c != nil {
			n += int64(c.Entries())
		}
	}
	return n
}

// Stats finalizes the accumulated counts into a NodeStats (sorting the
// numeric AVC-sets by value).
func (b *AVCBuilder) Stats() *NodeStats {
	s := &NodeStats{
		Schema:      b.schema,
		ClassTotals: b.classTotals,
		Num:         make([]*NumericAVC, len(b.schema.Attributes)),
		Cat:         b.cat,
	}
	for i, m := range b.num {
		if m == nil {
			continue
		}
		avc := &NumericAVC{
			Values: make([]float64, 0, len(m)+1),
			Counts: make([][]int64, 0, len(m)+1),
		}
		for v := range m {
			avc.Values = append(avc.Values, v)
		}
		sort.Float64s(avc.Values)
		for _, v := range avc.Values {
			avc.Counts = append(avc.Counts, m[v])
		}
		if b.nan[i] != nil {
			// The canonical AVC order places the single NaN (missing
			// value) entry last; see cmpValue.
			avc.Values = append(avc.Values, math.NaN())
			avc.Counts = append(avc.Counts, b.nan[i])
		}
		s.Num[i] = avc
	}
	return s
}

// BuildNodeStats computes the complete AVC-group of an in-memory family.
// Numeric AVC-sets are built by sorting (value, class) pairs rather than
// hashing. The in-memory builder and the bootstrap trees grow from
// presorted attribute lists and no longer call it; its one production
// caller is core's attachDiscretizations, once per coarse node over the
// node's share of the sample.
func BuildNodeStats(schema *data.Schema, tuples []data.Tuple) *NodeStats {
	k := schema.ClassCount
	s := &NodeStats{
		Schema:      schema,
		ClassTotals: make([]int64, k),
		Num:         make([]*NumericAVC, len(schema.Attributes)),
		Cat:         make([]*CatAVC, len(schema.Attributes)),
	}
	for _, t := range tuples {
		s.ClassTotals[t.Class]++
	}
	pairs := make([]valueClass, len(tuples))
	for i, a := range schema.Attributes {
		if a.Kind == data.Categorical {
			avc := NewCatAVC(a.Cardinality, k)
			for _, t := range tuples {
				avc.Counts[int(t.Values[i])][t.Class]++
			}
			s.Cat[i] = avc
			continue
		}
		for j, t := range tuples {
			pairs[j] = valueClass{v: t.Values[i], class: t.Class}
		}
		slices.SortFunc(pairs, func(a, b valueClass) int {
			return cmpValue(a.v, b.v)
		})
		distinct := 0
		for j := range pairs {
			if j == 0 || !SameValue(pairs[j].v, pairs[j-1].v) {
				distinct++
			}
		}
		avc := &NumericAVC{
			Values: make([]float64, 0, distinct),
			Counts: make([][]int64, 0, distinct),
		}
		backing := make([]int64, distinct*k)
		var row []int64
		for j := range pairs {
			if j == 0 || !SameValue(pairs[j].v, pairs[j-1].v) {
				row = backing[len(avc.Values)*k : (len(avc.Values)+1)*k]
				avc.Values = append(avc.Values, pairs[j].v)
				avc.Counts = append(avc.Counts, row)
			}
			row[pairs[j].class]++
		}
		s.Num[i] = avc
	}
	return s
}

type valueClass struct {
	v     float64
	class int
}

// SameValue reports whether two attribute values are the same AVC entry:
// IEEE equality, except that all NaNs (missing values) collapse into one
// entry. Every AVC construction path uses it for run detection so a family
// containing NaNs yields exactly one NaN entry, never one per tuple.
func SameValue(a, b float64) bool { return a == b || (a != a && b != b) }

// cmpValue is the canonical AVC value order: ascending, with the single
// NaN entry last. Placing NaN after every real value means the candidate
// enumeration of BestNumericSplit (all entries but the last) never emits a
// NaN threshold, while the largest real value becomes a legal candidate
// exactly when NaN tuples exist to its right — matching the pinned
// missing-value edge (NaN routes right) used by routing and inference.
func cmpValue(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	case a == b: // equal reals
		return 0
	case a == a: // b is NaN: a sorts first
		return -1
	case b == b: // a is NaN: b sorts first
		return 1
	default: // both NaN
		return 0
	}
}
