package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
)

// Tuple is one training record: one value per predictor attribute plus a
// class label. Numeric attribute values are stored directly; categorical
// values are stored as their category code converted to float64 (always a
// small non-negative integer, hence exactly representable).
type Tuple struct {
	Values []float64
	Class  int
}

// Num returns the value of numeric attribute i.
func (t Tuple) Num(i int) float64 { return t.Values[i] }

// Cat returns the category code of categorical attribute i.
func (t Tuple) Cat(i int) int { return int(t.Values[i]) }

// Clone returns a deep copy of the tuple, safe to retain after the scanner
// batch that produced t has been recycled.
func (t Tuple) Clone() Tuple {
	v := make([]float64, len(t.Values))
	copy(v, t.Values)
	return Tuple{Values: v, Class: t.Class}
}

// Equal reports equality of values and class under IEEE comparison, with
// one exception: NaN values compare equal to each other (any payload), so
// a tuple carrying a missing value matches its own copy and the dynamic
// environment can delete it again, which IEEE equality would forbid. As
// under IEEE comparison, -0 equals +0.
func (t Tuple) Equal(o Tuple) bool {
	if t.Class != o.Class || len(t.Values) != len(o.Values) {
		return false
	}
	for i := range t.Values {
		a, b := t.Values[i], o.Values[i]
		if a != b && (a == a || b == b) {
			return false
		}
	}
	return true
}

// canonicalNaNBits is the bit pattern every NaN hashes as, so Hash64 stays
// consistent with Equal (which treats all NaNs as one value).
var canonicalNaNBits = math.Float64bits(math.NaN())

// hashBits returns the bits Hash64 hashes for v: every NaN as one value
// and -0 as +0, the values Equal does not tell apart.
func hashBits(v float64) uint64 {
	if v != v {
		return canonicalNaNBits
	}
	if v == 0 {
		return 0
	}
	return math.Float64bits(v)
}

// Hash64 returns a 64-bit FNV-1a hash over the tuple's value bits and
// class. TupleBag's removal bookkeeping uses it as a bucket key (with an
// Equal check against the bucket's entries for collisions), avoiding the
// per-tuple string allocation a byte-exact map key would cost. NaNs and
// zeros are canonicalized before hashing so Equal tuples always share a
// bucket.
func (t Tuple) Hash64() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range t.Values {
		b := hashBits(v)
		for i := 0; i < 64; i += 8 {
			h = (h ^ (b >> i & 0xff)) * prime64
		}
	}
	c := uint64(t.Class)
	for i := 0; i < 64; i += 8 {
		h = (h ^ (c >> i & 0xff)) * prime64
	}
	return h
}

// Key returns a byte-exact identity key for the tuple (used by tests for
// multiset comparisons). Two tuples have equal keys iff they have
// bit-identical values and the same class.
func (t Tuple) Key() string {
	var sb strings.Builder
	sb.Grow(8*len(t.Values) + 8)
	var buf [8]byte
	for _, v := range t.Values {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		sb.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:], uint64(t.Class))
	sb.Write(buf[:])
	return sb.String()
}

// String renders the tuple for debugging.
func (t Tuple) String() string {
	parts := make([]string, len(t.Values))
	for i, v := range t.Values {
		parts[i] = fmt.Sprintf("%g", v)
	}
	return fmt.Sprintf("(%s | class=%d)", strings.Join(parts, ","), t.Class)
}

// CloneTuples deep-copies a slice of tuples. All copies share one backing
// array (one allocation for the whole slice instead of one per row);
// ragged inputs fall back to per-row copies for the odd-width rows.
func CloneTuples(ts []Tuple) []Tuple {
	if len(ts) == 0 {
		return nil
	}
	width := len(ts[0].Values)
	out := make([]Tuple, len(ts))
	backing := make([]float64, 0, len(ts)*width)
	for i, t := range ts {
		if len(t.Values) != width {
			out[i] = t.Clone()
			continue
		}
		start := len(backing)
		if cap(backing)-start < width {
			backing = make([]float64, 0, len(ts)*width)
			start = 0
		}
		backing = append(backing, t.Values...)
		out[i] = Tuple{Values: backing[start:len(backing):len(backing)], Class: t.Class}
	}
	return out
}
