package split

import (
	"math"
	"math/bits"

	"github.com/boatml/boat/internal/data"
)

// NumMoments holds the exact per-class sufficient statistics of one
// numeric attribute over a family: tuple counts, value sums, and sums of
// squared values. Sums are exact integers (attribute values are truncated
// to int64; the synthetic workloads only produce integral values), and the
// squared sums use 128-bit accumulation, so the statistics are
// order-independent and support exact deletion — the properties the
// moment-based split verification in BOAT relies on.
type NumMoments struct {
	Count []int64
	Sum   []int64
	SqHi  []uint64 // high 64 bits of the per-class sum of squares
	SqLo  []uint64 // low 64 bits
}

// NewNumMoments allocates zeroed moments for classCount classes.
func NewNumMoments(classCount int) *NumMoments {
	return &NumMoments{
		Count: make([]int64, classCount),
		Sum:   make([]int64, classCount),
		SqHi:  make([]uint64, classCount),
		SqLo:  make([]uint64, classCount),
	}
}

// Add registers w occurrences (w may be ±1) of value v with the class.
func (m *NumMoments) Add(v float64, class int, w int64) {
	iv := int64(v)
	m.Count[class] += w
	m.Sum[class] += w * iv
	var a uint64
	if iv < 0 {
		a = uint64(-iv)
	} else {
		a = uint64(iv)
	}
	hi, lo := bits.Mul64(a, a)
	mag := w
	if mag < 0 {
		mag = -mag
	}
	if hi == 0 {
		// Common case: v^2 fits in 64 bits, so v^2 * |w| fits in 128 bits.
		hi, lo = bits.Mul64(lo, uint64(mag))
		mag = 1
	}
	for ; mag > 0; mag-- {
		if w >= 0 {
			var carry uint64
			m.SqLo[class], carry = bits.Add64(m.SqLo[class], lo, 0)
			m.SqHi[class], _ = bits.Add64(m.SqHi[class], hi, carry)
		} else {
			var borrow uint64
			m.SqLo[class], borrow = bits.Sub64(m.SqLo[class], lo, 0)
			m.SqHi[class], _ = bits.Sub64(m.SqHi[class], hi, borrow)
		}
	}
}

// AddBatch registers w occurrences (w may be negative) of col[r] with
// class classes[r] for every row r in idx, or for every row of col when
// idx is nil. It is exactly equivalent to calling Add(col[r],
// int(classes[r]), w) per row. With w = +1, the weight of every scan row,
// the general 128-bit accumulation in Add reduces to a single add of the
// 128-bit square, which add1 inlines.
func (m *NumMoments) AddBatch(col []float64, classes []int32, idx []int32, w int64) {
	if w == 1 {
		if idx == nil {
			for r, v := range col {
				m.add1(v, int(classes[r]))
			}
			return
		}
		for _, r := range idx {
			m.add1(col[r], int(classes[r]))
		}
		return
	}
	if idx == nil {
		for r, v := range col {
			m.Add(v, int(classes[r]), w)
		}
		return
	}
	for _, r := range idx {
		m.Add(col[r], int(classes[r]), w)
	}
}

// add1 is Add(v, class, 1).
func (m *NumMoments) add1(v float64, class int) {
	iv := int64(v)
	m.Count[class]++
	m.Sum[class] += iv
	a := uint64(iv)
	if iv < 0 {
		a = uint64(-iv)
	}
	hi, lo := bits.Mul64(a, a)
	var carry uint64
	m.SqLo[class], carry = bits.Add64(m.SqLo[class], lo, 0)
	m.SqHi[class], _ = bits.Add64(m.SqHi[class], hi, carry)
}

// sq returns the per-class sum of squares as float64 (deterministic
// function of the exact 128-bit integer).
func (m *NumMoments) sq(class int) float64 {
	return float64(m.SqHi[class])*math.Exp2(64) + float64(m.SqLo[class])
}

// Moments is the complete constant-size sufficient-statistics view of a
// node's family for moment-based split selection methods: numeric moments
// per attribute plus the contingency tables (CatAVC) of the categorical
// attributes and the class totals.
type Moments struct {
	Schema      *data.Schema
	ClassTotals []int64
	Num         []*NumMoments // indexed by attribute; nil for categorical
	Cat         []*CatAVC     // indexed by attribute; nil for numeric
}

// NewMoments allocates zeroed moments for the schema.
func NewMoments(schema *data.Schema) *Moments {
	m := &Moments{
		Schema:      schema,
		ClassTotals: make([]int64, schema.ClassCount),
		Num:         make([]*NumMoments, len(schema.Attributes)),
		Cat:         make([]*CatAVC, len(schema.Attributes)),
	}
	for i, a := range schema.Attributes {
		if a.Kind == data.Numeric {
			m.Num[i] = NewNumMoments(schema.ClassCount)
		} else {
			m.Cat[i] = NewCatAVC(a.Cardinality, schema.ClassCount)
		}
	}
	return m
}

// Add registers w occurrences of tuple t (w = -1 implements deletion).
func (m *Moments) Add(t data.Tuple, w int64) {
	m.ClassTotals[t.Class] += w
	for i, a := range m.Schema.Attributes {
		if a.Kind == data.Numeric {
			m.Num[i].Add(t.Values[i], t.Class, w)
		} else {
			m.Cat[i].Add(int(t.Values[i]), t.Class, w)
		}
	}
}

// AddChunk registers w occurrences (w = -1 implements deletion) of every
// chunk row named by idx (all rows when idx is nil). Equivalent to
// Add(row, w) per row, but applied column by column so each attribute's
// statistic stays hot across the whole batch.
func (m *Moments) AddChunk(ch *data.Chunk, idx []int32, w int64) {
	classes := ch.Classes()
	if idx == nil {
		for _, c := range classes {
			m.ClassTotals[c] += w
		}
	} else {
		for _, r := range idx {
			m.ClassTotals[classes[r]] += w
		}
	}
	for i, a := range m.Schema.Attributes {
		col := ch.Col(i)
		if a.Kind == data.Numeric {
			m.Num[i].AddBatch(col, classes, idx, w)
		} else {
			m.Cat[i].AddBatch(col, classes, idx, w)
		}
	}
}

// Reset zeroes all statistics (used when a failed cleanup scan is
// restarted).
func (m *Moments) Reset() {
	for c := range m.ClassTotals {
		m.ClassTotals[c] = 0
	}
	for i := range m.Schema.Attributes {
		if nm := m.Num[i]; nm != nil {
			for c := range nm.Count {
				nm.Count[c], nm.Sum[c] = 0, 0
				nm.SqHi[c], nm.SqLo[c] = 0, 0
			}
		} else {
			m.Cat[i].Reset()
		}
	}
}

// MomentsFromStats derives the moments from a full AVC-group. Because the
// sums are exact integers, the result is identical to streaming the family
// through Moments.Add in any order.
func MomentsFromStats(stats *NodeStats) *Moments {
	m := NewMoments(stats.Schema)
	copy(m.ClassTotals, stats.ClassTotals)
	for i, a := range stats.Schema.Attributes {
		if a.Kind == data.Numeric {
			avc := stats.Num[i]
			for vi, v := range avc.Values {
				for class, c := range avc.Counts[vi] {
					if c != 0 {
						m.Num[i].Add(v, class, c)
					}
				}
			}
		} else {
			src := stats.Cat[i].Counts
			dst := m.Cat[i].Counts
			for c := range src {
				copy(dst[c], src[c])
			}
		}
	}
	return m
}
