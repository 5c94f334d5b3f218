// Package hull implements the stamp-point lower-bounding technique of
// Section 3.4 of the paper (Lemma 3.1, an application of a result of
// Mangasarian on concave minimization): every attribute value x of a
// numeric predictor induces a stamp point (n_x^1, ..., n_x^k) of
// cumulative per-class counts; the weighted impurity of the split X <= x
// is a concave function imp_S of the stamp point; and the minimum of a
// concave function over the convex hull of a point set is attained at a
// vertex. Because all stamp points between two bucket boundaries lie in
// the hyper-rectangle spanned by the boundary stamp points, the impurity
// of every split inside the bucket is lower-bounded by the minimum of
// imp_S over the rectangle's 2^k corner points.
package hull

import (
	"math"
	"math/bits"

	"github.com/boatml/boat/internal/split"
)

// MaxClasses bounds the corner enumeration (2^k corners). For problems
// with more classes LowerBound conservatively returns -Inf, which makes
// BOAT's verification fail and fall back to rebuilding the subtree — a
// correctness-preserving (if slow) degradation.
const MaxClasses = 16

// LowerBound returns a lower bound on crit.PartitionQuality(left,
// totals-left) over every integer vector "left" with lo <= left <= hi
// componentwise. lo and hi are the stamp points at the two boundaries of
// a discretization bucket, and totals are the class counts N^i of the
// node's family. Verification, discretization and the in-memory split
// search all bound buckets through it.
//
// Corner points with an empty side evaluate to +Inf via PartitionQuality;
// they are still valid corners (no split inside the bucket can do better
// than the returned minimum). The corners are evaluated by
// QualityFromLeft, so a degenerate rectangle (lo == hi) returns that
// point's exact quality bits. It allocates nothing.
func LowerBound(crit split.Criterion, lo, hi, totals []int64) float64 {
	k := len(totals)
	if k > MaxClasses {
		return math.Inf(-1)
	}
	// Enumerate only dimensions that actually vary.
	var cornerBuf, scratchBuf [MaxClasses]int64
	corner, scratch := cornerBuf[:k], scratchBuf[:k]
	varying := varyingDims(lo, hi)
	best := math.Inf(1)
	// sub runs over every subset of varying; each corner takes hi in the
	// dimensions of its subset and lo in the rest.
	for sub := uint32(0); ; sub = (sub - varying) & varying {
		for i := range corner {
			corner[i] = lo[i]
			if sub&(1<<i) != 0 {
				corner[i] = hi[i]
			}
		}
		if q := crit.QualityFromLeft(corner, totals, scratch); q < best {
			best = q
		}
		if sub == varying {
			return best
		}
	}
}

// Corners returns the number of corner points LowerBound evaluates for
// the rectangle [lo, hi]: 2^v, v the number of dimensions in which lo and
// hi differ. Above MaxClasses classes it returns 0, since LowerBound then
// evaluates none and returns -Inf.
func Corners(lo, hi []int64) int {
	if len(lo) > MaxClasses {
		return 0
	}
	return 1 << bits.OnesCount32(varyingDims(lo, hi))
}

// varyingDims returns the set of dimensions in which lo and hi, of at
// most MaxClasses dimensions, differ: bit i is set when dimension i does.
func varyingDims(lo, hi []int64) uint32 {
	var varying uint32
	for i := range lo {
		if hi[i] != lo[i] {
			varying |= 1 << i
		}
	}
	return varying
}

// MinOverBuckets returns the minimum LowerBound over consecutive pairs of
// a stamp-point sequence (the cumulative class counts at the bucket
// boundaries of one attribute's discretization, in ascending value
// order, starting at the all-zero point and ending at totals). skip
// reports bucket indexes to exclude (the buckets covered exactly by the
// confidence interval of the coarse splitting attribute). Returns +Inf if
// every bucket is skipped.
func MinOverBuckets(crit split.Criterion, stamps [][]int64, totals []int64, skip func(bucket int) bool) float64 {
	best := math.Inf(1)
	for b := 0; b+1 < len(stamps); b++ {
		if skip != nil && skip(b) {
			continue
		}
		lb := LowerBound(crit, stamps[b], stamps[b+1], totals)
		if lb < best {
			best = lb
		}
	}
	return best
}
