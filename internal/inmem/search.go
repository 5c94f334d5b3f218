package inmem

import (
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/hull"
	"github.com/boatml/boat/internal/split"
)

// Pruned split search for impurity-based methods (PAPER.md §1 step 3,
// Lemma 3.1). A stamp point is the vector of cumulative class counts at a
// position of an attribute's sorted list. At every node, one pass cuts
// each numeric attribute's list into buckets that end at value-run ends
// and records the stamp point at every bound. The exact splits at the
// bounds and the categorical splits give an incumbent; a bucket is then
// skipped when the corner bound of its stamp-point rectangle
// (hull.LowerBound) cannot reach the incumbent, and aggregated and
// scanned otherwise. The bound evaluates 2^v corners, v the number of
// classes whose count changes inside the bucket, so a bucket is bounded
// only when those corners cost no more than scanning it: hull.Corners
// times k classes at most its entry count. At 2 and 3 classes that holds
// for every bucket of at least minBucket entries; at many classes, for
// the buckets where few classes change. The result is Method.BestSplit's,
// bit for bit, whichever buckets are bounded:
//
//   - every candidate the search evaluates is evaluated exactly as the
//     exhaustive search does (QualityFromLeft at a bound, split.BestCut
//     inside a bucket), with the threshold of its run's first entry;
//   - a candidate inside a skipped bucket has an impurity above the
//     bucket's bound minus the evaluation error, so above the incumbent:
//     searchMargin covers twice that error, and ties (a candidate equal
//     to the incumbent, which Split.Better's order could prefer) fall
//     inside it too;
//   - the NaN run sorts last, so it is never a candidate; above
//     hull.MaxClasses classes the bound is -Inf and every bucket is
//     scanned.

const (
	// maxBuckets and minBucket cut a node's list of n entries into
	// min(maxBuckets, n/minBucket) buckets of about equal size, at least
	// one.
	maxBuckets = 64
	minBucket  = 32
	// searchMargin is added to the incumbent's impurity before a bucket's
	// bound is compared with it. An impurity computed in float64 from
	// integer counts is within 130u (u = 2^-53, about 1.5e-14) of its real
	// value for up to 16 classes (DESIGN §18, "Pruned split search"); the
	// bound and the candidate each carry that error, and the margin leaves
	// a factor above 30 over their sum.
	searchMargin = 1e-12
)

// bucketSearch is the working memory of the pruned split search,
// allocated once per build on flat backings. Per numeric attribute it
// holds the current node's bucket bounds, the threshold of the split at
// each bound and each bound's stamp point; the scratch AVC rows take the
// runs of the bucket being scanned.
type bucketSearch struct {
	crit    split.Criterion
	k       int
	bounds  []int32   // per numeric attribute, up to maxBuckets+1 positions in the node's list, the last its length
	thr     []float64 // per bound: the value of the first entry of the run ending there
	stamps  []int64   // per bound: the k class counts of the list before it
	vals    []float64 // scratch AVC of the bucket being scanned: run values
	rows    [][]int64 //   and their class counts, on one backing
	left    []int64
	scratch []int64

	// listed counts the numeric list entries of every searched node, the
	// entries the exhaustive search aggregates; aggregated counts those of
	// the scanned buckets, corners the corner points the bound evaluated
	// and pruned the buckets it skipped.
	listed, aggregated, corners, pruned int64
}

// newBucketSearch allocates the search of a build over n rows. The
// root's buckets are the largest, n/buckets(n) entries before each bound
// moves to the end of its run, so the scratch rows start with room for
// twice that and grow only for a bucket stretched by a longer run.
func newBucketSearch(crit split.Criterion, numeric, k, n int) *bucketSearch {
	slots := numeric * (maxBuckets + 1)
	rows := 2 * (n/buckets(n) + 1)
	counts := make([]int64, (slots+2)*k) // the stamp points, then left and scratch
	return &bucketSearch{
		crit:    crit,
		k:       k,
		bounds:  make([]int32, slots),
		thr:     make([]float64, slots),
		stamps:  counts[:slots*k],
		vals:    make([]float64, rows),
		rows:    countRows(rows, k),
		left:    counts[slots*k : (slots+1)*k],
		scratch: counts[(slots+1)*k:],
	}
}

// buckets returns the number of buckets a list of n entries is cut into.
func buckets(n int) int {
	return max(1, min(maxBuckets, n/minBucket))
}

// prunedSplit returns the split Method.BestSplit selects at the node
// owning [lo, hi), whose class totals are totals.
func (b *listBuilder) prunedSplit(lo, hi int, totals []int64) split.Split {
	s := b.search
	best := split.NoSplit()
	for a, attr := range b.schema.Attributes {
		if attr.Kind != data.Categorical {
			continue
		}
		avc := b.stats.Cat[a]
		avc.Reset()
		avc.AddBatch(b.cols[a], b.classes, b.rows[lo:hi], 1)
		if cand := split.BestCategoricalSplit(s.crit, a, avc, totals); cand.Better(best) {
			best = cand
		}
	}
	n, k := hi-lo, s.k
	for t, a := range b.num {
		s.cut(t, b.lists[a][lo:hi], buckets(n))
		base := t * (maxBuckets + 1)
		// The last bound, n, ends the list: its split has an empty right
		// side.
		for j := base + 1; int(s.bounds[j]) < n; j++ {
			q := s.crit.QualityFromLeft(s.stamps[j*k:(j+1)*k], totals, s.scratch)
			cand := split.Split{Found: true, Attr: a, Kind: data.Numeric, Threshold: s.thr[j], Quality: q}
			if cand.Better(best) {
				best = cand
			}
		}
	}
	s.listed += int64(n) * int64(len(b.num))
	for t, a := range b.num {
		es := b.lists[a][lo:hi]
		base := t * (maxBuckets + 1)
		for j := base; int(s.bounds[j]) < n; j++ {
			from, to := s.bounds[j], s.bounds[j+1]
			if split.SameValue(es[from].v, es[to-1].v) {
				continue // one run: no candidate inside
			}
			at, next := s.stamps[j*k:(j+1)*k], s.stamps[(j+1)*k:(j+2)*k]
			// Bound the bucket only when its corners, of k classes each,
			// cost no more than scanning its entries.
			if c := hull.Corners(at, next); c*k <= int(to-from) {
				s.corners += int64(c)
				if hull.LowerBound(s.crit, at, next, totals) > best.Quality+searchMargin {
					s.pruned++
					continue
				}
			}
			vals, rows := s.aggregate(es[from:to])
			// The bucket's last run is not a candidate: its split is the
			// next bound's, or it holds the attribute's largest value.
			copy(s.left, at)
			i, q := split.BestCut(s.crit, vals[:len(vals)-1], rows, s.left, totals)
			cand := split.Split{Found: true, Attr: a, Kind: data.Numeric, Threshold: vals[i], Quality: q}
			if cand.Better(best) {
				best = cand
			}
		}
	}
	return best
}

// cut cuts es, the node's sorted list of the t-th numeric attribute, by
// position into at most nb buckets. Each bound moves forward to the end of
// a value run, so the last is len(es); the pass records, at every bound,
// its position, the value of the first entry of the run ending there and
// its stamp point.
func (s *bucketSearch) cut(t int, es []entry, nb int) {
	k, n := s.k, len(es)
	base := t * (maxBuckets + 1)
	bounds, thr := s.bounds[base:base+maxBuckets+1], s.thr[base:base+maxBuckets+1]
	stamps := s.stamps[base*k : (base+maxBuckets+1)*k]
	clear(stamps[:k])
	bounds[0] = 0
	m := 0
	for j := 1; j <= nb; j++ {
		target := j * n / nb
		if target <= int(bounds[m]) {
			continue
		}
		end := runEnd(es, target-1)
		thr[m+1] = es[runStart(es, target-1)].v
		stamp := stamps[(m+1)*k : (m+2)*k]
		copy(stamp, stamps[m*k:(m+1)*k])
		for _, e := range es[bounds[m]:end] {
			stamp[e.class]++
		}
		m++
		bounds[m] = int32(end)
	}
}

// aggregate returns the AVC-set of es, a bucket that starts a value run,
// in the scratch rows, grown first to hold len(es) runs if they cannot.
func (s *bucketSearch) aggregate(es []entry) ([]float64, [][]int64) {
	if len(es) > len(s.rows) {
		n := max(len(es), 2*len(s.rows))
		s.vals = make([]float64, n)
		s.rows = countRows(n, s.k)
	}
	s.aggregated += int64(len(es))
	vals := aggregateRuns(es, s.vals, s.rows)
	return vals, s.rows[:len(vals)]
}

// runEnd returns the end of the value run holding es[i]: the first
// position after i whose value differs, or len(es). Runs are sortKey
// ranges, found by galloping then binary search, so a long run costs a
// logarithmic number of probes.
func runEnd(es []entry, i int) int {
	key := sortKey(es[i].v)
	lo, hi, step := i+1, i+1, 1 // es[i:lo] is in the run; es[hi] is not, if hi < len(es)
	for hi < len(es) && sortKey(es[hi].v) == key {
		lo = hi + 1
		hi += step
		step *= 2
	}
	hi = min(hi, len(es))
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if sortKey(es[m].v) == key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// runStart returns the first position of the value run holding es[i].
func runStart(es []entry, i int) int {
	key := sortKey(es[i].v)
	lo, hi, step := i-1, i, 1 // es[hi:i+1] is in the run; es[lo] is not, if lo >= 0
	for lo >= 0 && sortKey(es[lo].v) == key {
		hi = lo
		lo -= step
		step *= 2
	}
	lo = max(lo, -1)
	for hi-lo > 1 {
		m := int(uint(lo+hi) >> 1)
		if sortKey(es[m].v) == key {
			hi = m
		} else {
			lo = m
		}
	}
	return hi
}
