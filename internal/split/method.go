package split

import (
	"math"

	"github.com/boatml/boat/internal/data"
)

// Method is a split selection method CL in the paper's sense: given the
// complete statistics of a node's family it either produces the splitting
// criterion or declares the node a leaf. Implementations must be
// deterministic pure functions of the statistics, and must not keep stats
// or anything reachable from it after BestSplit returns: callers reuse it
// as scratch for the next node.
type Method interface {
	Name() string
	BestSplit(stats *NodeStats) Split
}

// ImpurityBased is implemented by methods that minimize a concave impurity
// function of the class-count vectors. BOAT exploits the concavity (via
// the stamp-point corner lower bound of Lemma 3.1) to verify the coarse
// splitting criteria of these methods, and the in-memory builder to prune
// its split search. Both rely on one condition: BestSplit returns the
// exhaustive minimum, under Split.Better, of Criterion()'s weighted
// impurity (PartitionQuality) over every numeric candidate
// (BestNumericSplit) and every attribute's categorical split
// (BestCategoricalSplit).
type ImpurityBased interface {
	Method
	Criterion() Criterion
}

// MomentBased is implemented by methods whose splitting criterion is an
// exact function of constant-size sufficient statistics (per-class value
// moments for numeric attributes and contingency tables for categorical
// ones). BOAT verifies these methods by exact recomputation: the moments
// are exact integer sums gathered during the cleanup scan.
type MomentBased interface {
	Method
	BestSplitFromMoments(m *Moments) Split
}

// ---------------------------------------------------------------------------
// Impurity-based methods

// ImpurityMethod selects the split minimizing the weighted impurity under
// the configured criterion, examining every predictor attribute
// (Section 2.2 of the paper). NewGini / NewEntropy are the CART- and
// C4.5-style instantiations.
type ImpurityMethod struct {
	crit Criterion
	name string
}

// NewGini returns the gini-index split selection method (CART).
func NewGini() *ImpurityMethod { return &ImpurityMethod{crit: Gini, name: "gini"} }

// NewEntropy returns the entropy split selection method.
func NewEntropy() *ImpurityMethod { return &ImpurityMethod{crit: Entropy, name: "entropy"} }

// Name implements Method.
func (m *ImpurityMethod) Name() string { return m.name }

// Criterion implements ImpurityBased.
func (m *ImpurityMethod) Criterion() Criterion { return m.crit }

// BestSplit implements Method: exact search over all attributes with the
// canonical deterministic tie-break.
func (m *ImpurityMethod) BestSplit(stats *NodeStats) Split {
	best := NoSplit()
	for attr := range stats.Schema.Attributes {
		var cand Split
		if avc := stats.Num[attr]; avc != nil {
			cand = BestNumericSplit(m.crit, attr, avc, stats.ClassTotals)
		} else if cat := stats.Cat[attr]; cat != nil {
			cand = BestCategoricalSplit(m.crit, attr, cat, stats.ClassTotals)
		}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// BestNumericSplit finds the best split X <= x over all candidate split
// points x (the observed attribute values, excluding the largest) of one
// numeric attribute, from its AVC-set: BestCut over every value but the
// last, from zero left counts. Up to 8 classes it allocates nothing.
func BestNumericSplit(crit Criterion, attr int, avc *NumericAVC, classTotals []int64) Split {
	last := len(avc.Values) - 1
	if last < 1 {
		return NoSplit()
	}
	var buf [8]int64
	var left []int64
	if k := len(classTotals); k <= len(buf) {
		left = buf[:k]
	} else {
		left = make([]int64, k)
	}
	i, q := BestCut(crit, avc.Values[:last], avc.Counts, left, classTotals)
	return Split{Found: true, Attr: attr, Kind: data.Numeric, Threshold: avc.Values[i], Quality: q}
}

// BestCut returns the index i and the weighted impurity of the best cut
// X <= values[i], where counts[i] holds the class counts of values[i] and
// left holds, on entry, the class counts of every tuple below values[0]:
// zeros for a whole AVC-set, a stamp point for one bucket of it. Every
// value is a candidate, so the caller leaves out the attribute's largest.
// left is advanced past the last value. It returns -1 for no values.
//
// It is the in-memory builder's hottest loop, so every candidate is
// evaluated in one fused pass per criterion: the left class counts and
// their total run along the values, the right side is the family totals
// minus the left, and a candidate costs only its impurity arithmetic and
// one comparison. The floating-point operations are PartitionQuality's,
// in the same order, so the Quality bit pattern and the index equal
// those of evaluating each candidate through QualityFromLeft and keeping
// the Better one.
func BestCut(crit Criterion, values []float64, counts [][]int64, left, totals []int64) (int, float64) {
	switch crit {
	case Gini:
		return bestGiniCut(values, counts, left, totals)
	case Entropy:
		return bestEntropyCut(values, counts, left, totals)
	default:
		panic("split: unknown criterion")
	}
}

// bestGiniCut is BestCut for the gini criterion; ties keep the smaller
// threshold, as Split.Better does.
func bestGiniCut(values []float64, counts [][]int64, left, totals []int64) (int, float64) {
	var n, nL int64
	for _, c := range totals {
		n += c
	}
	for _, c := range left {
		nL += c
	}
	fn := float64(n)
	bestI, bestQ := -1, 0.0
	for i, v := range values {
		for j, c := range counts[i][:len(left)] {
			left[j] += c
			nL += c
		}
		q := math.Inf(1)
		if nR := n - nL; nL > 0 && nR > 0 {
			fL, fR := float64(nL), float64(nR)
			sL, sR := 0.0, 0.0
			for _, l := range left {
				p := float64(l) / fL
				sL += p * p
			}
			for j, l := range left {
				p := float64(totals[j]-l) / fR
				sR += p * p
			}
			q = (fL*(1-sL) + fR*(1-sR)) / fn
		}
		if bestI < 0 || q < bestQ || (q == bestQ && v < values[bestI]) {
			bestI, bestQ = i, q
		}
	}
	return bestI, bestQ
}

// bestEntropyCut is BestCut for the entropy criterion.
func bestEntropyCut(values []float64, counts [][]int64, left, totals []int64) (int, float64) {
	var n, nL int64
	for _, c := range totals {
		n += c
	}
	for _, c := range left {
		nL += c
	}
	fn := float64(n)
	bestI, bestQ := -1, 0.0
	for i, v := range values {
		for j, c := range counts[i][:len(left)] {
			left[j] += c
			nL += c
		}
		q := math.Inf(1)
		if nR := n - nL; nL > 0 && nR > 0 {
			fL, fR := float64(nL), float64(nR)
			sL, sR := 0.0, 0.0
			for _, l := range left {
				if l == 0 {
					continue
				}
				p := float64(l) / fL
				sL -= p * math.Log2(p)
			}
			for j, l := range left {
				r := totals[j] - l
				if r == 0 {
					continue
				}
				p := float64(r) / fR
				sR -= p * math.Log2(p)
			}
			q = (fL*sL + fR*sR) / fn
		}
		if bestI < 0 || q < bestQ || (q == bestQ && v < values[bestI]) {
			bestI, bestQ = i, q
		}
	}
	return bestI, bestQ
}

// BestNumericSplitInInterval finds the best split of a numeric attribute
// restricted to candidate split points inside the coarse criterion's
// confidence interval [lo, hi]. It implements the cleanup-phase
// computation of Section 3.3:
//
//   - baseLeft are the exact class counts of tuples with X <= lo
//     (maintained by dedicated counters during the cleanup scan),
//   - loObserved tells whether the value lo itself occurs in the family
//     (making X <= lo a legal candidate with partition baseLeft),
//   - inAVC is the AVC-set of the in-interval tuples S_n = i_n(F_n),
//     i.e. lo < X <= hi, ascending,
//   - classTotals are the class counts of the whole family F_n.
//
// Candidates are X <= lo (if observed) and X <= v for every observed
// in-interval value v except that the overall largest observed value of
// the attribute cannot be a candidate; the caller guarantees hi is not the
// attribute maximum by construction (there are always tuples right of the
// interval when hi is an interior bootstrap split point) — if the right
// side is empty the candidate is discarded by PartitionQuality = +Inf.
func BestNumericSplitInInterval(crit Criterion, attr int, baseLeft []int64, loObserved bool,
	lo float64, inAVC *NumericAVC, classTotals []int64) Split {
	k := len(classTotals)
	left := make([]int64, k)
	copy(left, baseLeft)
	scratch := make([]int64, k)
	best := NoSplit()
	consider := func(threshold float64) {
		q := crit.QualityFromLeft(left, classTotals, scratch)
		if math.IsInf(q, 1) {
			return
		}
		cand := Split{Found: true, Attr: attr, Kind: data.Numeric, Threshold: threshold, Quality: q}
		if cand.Better(best) {
			best = cand
		}
	}
	if loObserved {
		consider(lo)
	}
	for i, v := range inAVC.Values {
		for j, c := range inAVC.Counts[i] {
			left[j] += c
		}
		consider(v)
	}
	return best
}
