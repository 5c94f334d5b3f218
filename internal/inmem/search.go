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

// buckets returns the number of buckets a list of n entries is cut into.
func buckets(n int) int {
	return max(1, min(maxBuckets, n/minBucket))
}

// prunedSplit returns the split Method.BestSplit selects at the node
// owning [lo, hi), whose class totals are totals, in two phases of one
// fork item per attribute. Phase 1 takes each attribute's best
// categorical split or best split at its bucket bounds; their
// Split.Better-best is the incumbent. Phase 2 scans each numeric
// attribute's buckets from the incumbent with the attribute's own running
// best, which only its own scans improve. A skipped bucket cannot hold a
// split better than a candidate already evaluated, so the Better-best of
// the phase-2 results is the exhaustive search's split whoever runs
// which attribute; it is also the same at every worker count.
func (b *listBuilder) prunedSplit(lo, hi int, totals []int64, st *nodeState, w *Worker) split.Split {
	n := hi - lo
	b.fork(w, n, searchTask, len(b.schema.Attributes), func(a int, w *Worker) {
		st.best[a] = b.incumbent(lo, hi, a, totals, st, b.set(w))
	})
	inc := split.NoSplit()
	for _, cand := range st.best {
		if cand.Better(inc) {
			inc = cand
		}
	}
	b.set(w).counts.listed += int64(n) * int64(len(b.num))
	b.fork(w, n, scanTask, len(b.num), func(t int, w *Worker) {
		st.best[b.num[t]] = b.scan(lo, hi, t, totals, inc, st, b.set(w))
	})
	best := inc
	for _, a := range b.num {
		if st.best[a].Better(best) {
			best = st.best[a]
		}
	}
	return best
}

// incumbent is phase 1 of prunedSplit for attribute a: a categorical
// attribute's best split, or a numeric one's best split at the bucket
// bounds of its cut.
func (b *listBuilder) incumbent(lo, hi, a int, totals []int64, st *nodeState, sc *scratch) split.Split {
	t := b.slot[a]
	if t < 0 {
		avc := st.stats.Cat[a]
		avc.Reset()
		avc.AddBatch(b.cols[a], b.classes, b.rows[lo:hi], 1)
		return split.BestCategoricalSplit(b.crit, a, avc, totals)
	}
	n, k := hi-lo, len(totals)
	st.cut(t, b.lists[a][lo:hi], buckets(n), k)
	best := split.NoSplit()
	// The last bound, n, ends the list: its split has an empty right
	// side.
	for j := t*(maxBuckets+1) + 1; int(st.bounds[j]) < n; j++ {
		q := b.crit.QualityFromLeft(st.stamps[j*k:(j+1)*k], totals, sc.q)
		cand := split.Split{Found: true, Attr: a, Kind: data.Numeric, Threshold: st.thr[j], Quality: q}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// scan is phase 2 of prunedSplit for the t-th numeric attribute: it
// scans the buckets of the phase-1 cut whose bound can reach best, the
// incumbent at first and then the attribute's own best, and returns that
// best.
func (b *listBuilder) scan(lo, hi, t int, totals []int64, best split.Split, st *nodeState, sc *scratch) split.Split {
	a, n, k := b.num[t], hi-lo, len(totals)
	es := b.lists[a][lo:hi]
	for j := t * (maxBuckets + 1); int(st.bounds[j]) < n; j++ {
		from, to := st.bounds[j], st.bounds[j+1]
		if split.SameValue(es[from].v, es[to-1].v) {
			continue // one run: no candidate inside
		}
		at, next := st.stamps[j*k:(j+1)*k], st.stamps[(j+1)*k:(j+2)*k]
		// Bound the bucket only when its corners, of k classes each, cost
		// no more than scanning its entries.
		if c := hull.Corners(at, next); c*k <= int(to-from) {
			sc.counts.corners += int64(c)
			if hull.LowerBound(b.crit, at, next, totals) > best.Quality+searchMargin {
				sc.counts.pruned++
				continue
			}
		}
		vals, rows := sc.aggregate(es[from:to], k)
		// The bucket's last run is not a candidate: its split is the next
		// bound's, or it holds the attribute's largest value.
		copy(sc.left, at)
		i, q := split.BestCut(b.crit, vals[:len(vals)-1], rows, sc.left, totals)
		cand := split.Split{Found: true, Attr: a, Kind: data.Numeric, Threshold: vals[i], Quality: q}
		if cand.Better(best) {
			best = cand
		}
	}
	return best
}

// cut cuts es, the node's sorted list of the t-th numeric attribute, by
// position into at most nb buckets. Each bound moves forward to the end of
// a value run, so the last is len(es); the pass records, at every bound,
// its position, the value of the first entry of the run ending there and
// its stamp point of k classes.
func (st *nodeState) cut(t int, es []entry, nb, k int) {
	n := len(es)
	base := t * (maxBuckets + 1)
	bounds, thr := st.bounds[base:base+maxBuckets+1], st.thr[base:base+maxBuckets+1]
	stamps := st.stamps[base*k : (base+maxBuckets+1)*k]
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
// of k classes, in the scratch rows, grown first to hold twice len(es)
// runs if they cannot hold len(es).
func (sc *scratch) aggregate(es []entry, k int) ([]float64, [][]int64) {
	if len(es) > len(sc.rows) {
		n := max(2*len(es), 2*len(sc.rows))
		sc.vals = make([]float64, n)
		sc.rows = countRows(n, k)
	}
	sc.counts.aggregated += int64(len(es))
	vals := aggregateRuns(es, sc.vals, sc.rows)
	return vals, sc.rows[:len(vals)]
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
