package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/discretize"
	"github.com/boatml/boat/internal/hull"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// process performs the top-down pass over the subtree (Sections 3.3-3.5
// for the static build; the identical pass also runs after every update
// chunk, Section 4): at each internal node it computes the exact final
// splitting criterion, verifies that the coarse criterion captured the
// global optimum, pushes stuck tuples down, migrates previously pushed
// tuples if the split point moved within its confidence interval, and
// recurses; verification failures discard and rebuild the subtree.
//
// The internal-node pass is sequential (a node's stuck tuples must be
// pushed before its children are examined), but it only defers leaf
// completion: leaves — including failed nodes turned into leaves over
// their resident families — are collected in left-to-right order and
// finished afterwards by completeLeaves, as one fork on wk's pool, since
// each leaf's in-memory fit or promotion touches only that leaf's
// family. rdepth is the BOAT-in-BOAT recursion depth of this pass, sp
// the enclosing trace span (the build "process" span, or an update span)
// and wk the pool worker running the pass (nil runs it inline).
func (t *Tree) process(n *bnode, rdepth int, sp *obs.Span, wk *inmem.Worker) error {
	var leaves []*bnode
	verSpan := sp.Start("verification")
	err := t.processInternal(n, rdepth, &leaves, verSpan, wk)
	verSpan.End()
	if err != nil {
		return err
	}
	leafSpan := sp.Start("leaf-completion")
	leafSpan.SetAttr("leaves", len(leaves))
	tally := leafTally{timed: leafSpan != nil}
	err = t.completeLeaves(leaves, rdepth, leafSpan, &tally, wk)
	leafSpan.SetAttr("family_refits", tally.refits.Load())
	leafSpan.SetAttr("family_conversions", tally.conversions.Load())
	if tally.timed {
		leafSpan.SetAttr("fit_s_max", time.Duration(tally.fitMax.Load()).Seconds())
		leafSpan.SetAttr("fit_s_sum", time.Duration(tally.fitSum.Load()).Seconds())
		leafSpan.SetAttr("shared_tasks", tally.shared)
	}
	leafSpan.End()
	return err
}

// leafTally counts, over one leaf completion, the refits grown from a
// presorted family kept since an earlier fit and the resident bags moved
// into one (see leafFamily.fit). When timed (the completion is traced) it
// also keeps the slowest fit's and the sum of every fit's wall time, in
// nanoseconds, and in shared the fit tasks a worker other than the fit's
// owner ran on the pool while the completion's fork was open
// (inmem.Worker.Shared), overlapping fits of a nested completion included.
type leafTally struct {
	refits, conversions atomic.Int64
	timed               bool
	fitMax, fitSum      atomic.Int64
	shared              int64
}

// noteFit records a fit's wall time d.
func (tl *leafTally) noteFit(d time.Duration) {
	tl.fitSum.Add(int64(d))
	for {
		m := tl.fitMax.Load()
		if int64(d) <= m || tl.fitMax.CompareAndSwap(m, int64(d)) {
			return
		}
	}
}

func (t *Tree) processInternal(n *bnode, rdepth int, leaves *[]*bnode, sp *obs.Span, wk *inmem.Worker) error {
	if n.isLeaf() {
		*leaves = append(*leaves, n)
		return nil
	}
	grow := t.cfg.growConfig(0)
	if grow.StopBeforeSplit(n.total(), n.depth, n.classCounts) {
		// The reference algorithm makes this node a leaf (it became pure
		// or too small, e.g. after deletions).
		if err := t.gatherLeaf(n, fromBuffers); err != nil {
			return fmt.Errorf("core: gathering family for demotion: %w", err)
		}
		*leaves = append(*leaves, n)
		return nil
	}
	chosen, ok, err := t.verify(n)
	if err != nil {
		return err
	}
	if !ok {
		t.note(evCIMiss, 1)
		return t.rebuild(n, fromBuffers, rdepth, leaves, sp, wk)
	}
	t.note(evCIHit, 1)
	if n.coarse.kind == data.Numeric {
		if rule, err := t.moveStuck(n, chosen.Threshold, wk); err != nil {
			if data.IsSpillError(err) {
				return t.rebuildAfterSpillFault(n, rule, rdepth, leaves, sp, wk)
			}
			return err
		}
	}
	n.crit = chosen
	if err := t.processInternal(n.left, rdepth, leaves, sp, wk); err != nil {
		return err
	}
	return t.processInternal(n.right, rdepth, leaves, sp, wk)
}

// completeLeaves finishes the collected leaves. Each dirty leaf's work —
// an in-memory (re)fit or the promotion of a spilled frontier family to
// a BOAT subtree — depends only on that leaf's family, so the dirty
// leaves are the items of one fork on wk's pool (inmem.Fork): a worker
// with no leaf left runs the tasks that the still-running fits offer, and
// a promotion's recursive BOAT forks on the same pool. Shared state
// reached from processLeaf (the memory budget, the I/O stats, the
// build/update counters, the rebuild seed counter) is thread-safe; the
// resulting tree is identical either way.
func (t *Tree) completeLeaves(leaves []*bnode, rdepth int, sp *obs.Span, tally *leafTally, wk *inmem.Worker) error {
	dirty := leaves[:0:0]
	for _, n := range leaves {
		if n.dirty {
			dirty = append(dirty, n)
		}
	}
	shared := wk.Shared()
	err := inmem.Fork(wk, len(dirty), func(wk *inmem.Worker, i int) error {
		return t.processLeaf(dirty[i], rdepth, sp, tally, wk)
	})
	if tally.timed {
		tally.shared = wk.Shared() - shared
	}
	return err
}

// moveStuck brings n's children in line with its stuck set S_n under the
// final split point thr: it migrates the pushed tuples the split point
// moved past, pushes the pending ones down, and records them as pushed.
// On failure it also returns the rule that gathers F_n exactly from what
// the failing step left behind. The router runs on wk.
func (t *Tree) moveStuck(n *bnode, thr float64, wk *inmem.Worker) (familyRule, error) {
	if n.pushed.Len() > 0 && n.routedThr != thr {
		if err := t.migrate(n, n.routedThr, thr, wk); err != nil {
			return fromStuckSets, fmt.Errorf("core: migrating stuck tuples: %w", err)
		}
	}
	if n.pending.Len() > 0 {
		if err := t.push(n, thr, wk); err != nil {
			return fromStuckSets, fmt.Errorf("core: pushing stuck tuples: %w", err)
		}
		// Every stuck tuple now lives below n as well, so a fault from here
		// on leaves F_n entirely in the subtree. An empty pushed set (as at
		// the first push after a cleanup scan) is swapped for the pending
		// bag instead of copied into, so S_n is not held, or charged to
		// the budget, twice.
		if n.pushed.Len() == 0 && n.pushed.PendingRemovals() == 0 {
			n.pending, n.pushed = n.pushed, n.pending
		} else if err := n.pending.ForEachChunk(n.pushed.AddChunkRows); err != nil {
			return fromSubtree, fmt.Errorf("core: recording pushed stuck tuples: %w", err)
		}
		if err := n.pending.Reset(); err != nil {
			// Reset keeps the overflow file for reuse; if truncating it
			// failed, discard the bag and start a fresh one — all its
			// tuples were pushed successfully, so the contents are
			// disposable.
			n.pending.Close()
			n.pending = data.NewTupleBagEnv(t.schema, t.spillEnv(t.budget))
		}
	}
	n.routedThr = thr
	return fromBuffers, nil
}

// push streams n's stuck set S_n (pending), chunk by chunk, into n's
// children by the final split point thr: each chunk's rows are split by
// thr and the two index sets descend into n.left and n.right at weight +1
// through the chunk router on wk — its kernels and forks — exactly as if
// they had been routed past n by the cleanup scan. Every buffer below n
// receives its rows in pending order. pending itself is left untouched;
// the caller records it as pushed.
func (t *Tree) push(n *bnode, thr float64, wk *inmem.Worker) error {
	r := t.newChunkRouter(+1)
	sc := t.scratch.Get().(*routeScratch)
	defer t.scratch.Put(sc)
	attr := n.coarse.attr
	return n.pending.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
		left, right, _ := sc.at(0)
		col := ch.Col(attr)
		left = intervalRows(left, col, idx, math.Inf(-1), thr, true)
		right = intervalRows(right, col, idx, math.Inf(-1), thr, false)
		return r.children(n, ch, left, right, sc, 1, wk)
	})
}

// migrate re-routes previously pushed stuck tuples whose side changed when
// the final split point moved from old to new within the confidence
// interval. Only the tuples between the two thresholds move: they stream
// out of n.pushed chunk by chunk and descend through the chunk router at
// -1 into the side they leave, then at +1 into the side they join, on
// wk. The paper's claim that stable distributions make updates cheap
// rests on this set being small.
func (t *Tree) migrate(n *bnode, old, new float64, wk *inmem.Worker) error {
	// A lower split point sends the tuples in (new, old], routed left so
	// far, to the right; a higher one sends those in (old, new] left.
	leave, join := n.left, n.right
	lo, hi := new, old
	if new > old {
		leave, join = n.right, n.left
		lo, hi = old, new
	}
	out, in := t.newChunkRouter(-1), t.newChunkRouter(+1)
	sc := t.scratch.Get().(*routeScratch)
	defer t.scratch.Put(sc)
	attr := n.coarse.attr
	var moved int64
	err := n.pushed.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
		sel, _, _ := sc.at(0)
		sel = intervalRows(sel, ch.Col(attr), idx, lo, hi, true)
		if len(sel) == 0 {
			return nil
		}
		moved += int64(len(sel))
		if err := out.descend(leave, ch, sel, sc, 1, wk); err != nil {
			return err
		}
		return in.descend(join, ch, sel, sc, 1, wk)
	})
	if err != nil {
		return err
	}
	t.note(evMigrated, moved)
	return nil
}

// intervalRows appends to dst the rows named by idx (all rows when idx is
// nil) whose value in col lies inside (lo, hi] when inside is set, and
// outside it otherwise — NaN included, which every router sends right.
func intervalRows(dst []int32, col []float64, idx []int32, lo, hi float64, inside bool) []int32 {
	if idx == nil {
		for i, v := range col {
			if (v > lo && v <= hi) == inside {
				dst = append(dst, int32(i))
			}
		}
		return dst
	}
	for _, i := range idx {
		if v := col[i]; (v > lo && v <= hi) == inside {
			dst = append(dst, i)
		}
	}
	return dst
}

// verify computes the exact final splitting criterion at n given the
// coarse criterion, and checks that the global optimum cannot lie outside
// it (Lemma 3.2). ok=false signals that the coarse splitting criterion is
// (or may be) incorrect; the subtree must be discarded and rebuilt. An
// error means the node's stuck set could not be read — a storage fault,
// or a removal that matched no stored tuple (a dangling delete) — and
// fails the pass instead of counting as a verification failure.
func (t *Tree) verify(n *bnode) (split.Split, bool, error) {
	if t.momentBased != nil {
		chosen, ok := t.verifyMoments(n)
		return chosen, ok, nil
	}
	return t.verifyImpurity(n)
}

// verifyMoments: moment-based methods recompute their criterion exactly
// from the streamed sufficient statistics; the only failure modes are a
// different splitting attribute, a different splitting subset, or a split
// point outside the confidence interval (all of which invalidate how the
// scan routed tuples to the children).
func (t *Tree) verifyMoments(n *bnode) (split.Split, bool) {
	chosen := t.momentBased.BestSplitFromMoments(n.moments)
	c := n.coarse
	var ok bool
	switch {
	case !chosen.Found || chosen.Attr != c.attr || chosen.Kind != c.kind:
		// Another attribute, or none, is best.
	case c.kind == data.Categorical:
		ok = chosen.Subset == c.subset
	default:
		ok = !(chosen.Threshold < c.lo || chosen.Threshold > c.hi)
	}
	if !ok {
		t.note(evFailMoment, 1)
		return split.Split{}, false
	}
	return chosen, true
}

// verifyImpurity implements Section 3.4 for impurity-based methods:
//
//  1. the exact best split inside the confidence interval is computed
//     from the stuck set S_n and the interval's base counters (or, for a
//     categorical coarse attribute, the exact best subset from the
//     complete category-class counts, which must equal the coarse one);
//  2. every categorical attribute's exact best split must not beat it;
//  3. every numeric attribute's discretization buckets must lower-bound
//     (Lemma 3.1) above it, except the buckets covered by the interval
//     itself, which step 1 evaluated exactly.
//
// Tie handling is deliberately conservative: a bucket whose lower bound
// equals the chosen quality fails verification if it could contain an
// equal-quality candidate that the canonical order (split.Split.Better)
// would prefer — an occasional spurious rebuild instead of a wrong tree.
func (t *Tree) verifyImpurity(n *bnode) (split.Split, bool, error) {
	crit := t.impurityBased.Criterion()
	c := n.coarse

	bestCat := split.NoSplit()
	for i, cc := range n.catCounts {
		if cc == nil {
			continue
		}
		cand := split.BestCategoricalSplit(crit, i, cc, n.classCounts)
		if cand.Better(bestCat) {
			bestCat = cand
		}
	}

	var chosen split.Split
	if c.kind == data.Numeric {
		avc, err := t.stuckAVC(n)
		if err != nil {
			return split.Split{}, false, fmt.Errorf("core: reading stuck set: %w", err)
		}
		bestIv := split.BestNumericSplitInInterval(crit, c.attr, n.lowCounts,
			n.eqLow > 0, c.lo, avc, n.classCounts)
		if !bestIv.Found {
			t.note(evFailNoCandidate, 1)
			return split.Split{}, false, nil
		}
		if bestCat.Better(bestIv) {
			// A categorical attribute beats the coarse attribute: the
			// coarse splitting attribute is wrong.
			t.note(evFailBetterCat, 1)
			return split.Split{}, false, nil
		}
		chosen = bestIv
	} else {
		// The coarse subset must be the exact best one, and no other
		// categorical attribute may beat it.
		exact := split.BestCategoricalSplit(crit, c.attr, n.catCounts[c.attr], n.classCounts)
		if !exact.Found || exact.Subset != c.subset || bestCat.Better(exact) {
			t.note(evFailBetterCat, 1)
			return split.Split{}, false, nil
		}
		chosen = exact
	}

	iPrime := chosen.Quality
	scratch := make([]int64, len(n.classCounts))
	for i, h := range n.hist {
		if h == nil {
			continue
		}
		stamps := h.StampPoints()
		isCoarseAttr := c.kind == data.Numeric && i == c.attr
		for cell := 0; cell < h.NumCells(); cell++ {
			if h.CellTotal(cell) == 0 && h.IsAtom(cell) {
				// The boundary value does not occur in the family; the
				// split at it induces the same partition as the previous
				// stamp point, already covered.
				continue
			}
			loEdge, hiEdge := h.CellLowerEdge(cell), h.CellUpperEdge(cell)
			if isCoarseAttr && loEdge >= c.lo && hiEdge <= c.hi {
				// Candidates in [lo, hi] were evaluated exactly from the
				// stuck set (and the lo base counters).
				continue
			}
			var lb float64
			var tieValue float64 // a value at or below every candidate the cell may hide
			if h.IsAtom(cell) {
				// Exact evaluation: the stamp point at the boundary is
				// the true partition of the split X <= boundary.
				lb = crit.QualityFromLeft(stamps[cell+1], n.classCounts, scratch)
				tieValue = h.AtomValue(cell)
			} else {
				if isInteriorEmpty(h, cell) {
					// No observed values strictly inside: no candidates.
					continue
				}
				lb = hull.LowerBound(crit, stamps[cell], stamps[cell+1], n.classCounts)
				tieValue = loEdge
			}
			if lb < iPrime {
				t.note(evFailBound, 1)
				return split.Split{}, false, nil
			}
			if lb == iPrime {
				// A candidate here could tie the chosen split; fail if
				// the canonical order would prefer it (conservative for
				// interior cells).
				if i < chosen.Attr ||
					(i == chosen.Attr && chosen.Kind == data.Numeric && tieValue < chosen.Threshold) {
					t.note(evFailTie, 1)
					return split.Split{}, false, nil
				}
			}
		}
	}
	return chosen, true, nil
}

// isInteriorEmpty reports whether an interior cell holds no tuples (hence
// no candidate split points strictly inside its open range).
func isInteriorEmpty(h *discretize.Histogram, cell int) bool {
	return h.CellTotal(cell) == 0
}

// stuckAVCScratch pools the value→class-counts scratch maps used by
// stuckAVC: clearing a map keeps its buckets, so repeated verifications
// (and concurrent ones — sync.Pool is goroutine-safe) avoid re-growing a
// fresh map per node. Only the map is pooled; the count rows escape into
// the returned AVC-set.
var stuckAVCScratch = sync.Pool{
	New: func() any { return make(map[float64][]int64, 64) },
}

// stuckAVC aggregates the stuck set S_n (pending plus pushed tuples, net
// of removals) into the AVC-set of the coarse attribute's in-interval
// values, reading only the coarse column and the class column of each
// chunk.
func (t *Tree) stuckAVC(n *bnode) (*split.NumericAVC, error) {
	attr := n.coarse.attr
	m := stuckAVCScratch.Get().(map[float64][]int64)
	defer func() {
		clear(m)
		stuckAVCScratch.Put(m)
	}()
	collect := func(ch *data.Chunk, idx []int32) error {
		col, classes := ch.Col(attr), ch.Classes()
		rows := len(idx)
		if idx == nil {
			rows = ch.Len()
		}
		for k := 0; k < rows; k++ {
			i := int32(k)
			if idx != nil {
				i = idx[k]
			}
			row := m[col[i]]
			if row == nil {
				row = make([]int64, t.schema.ClassCount)
				m[col[i]] = row
			}
			row[classes[i]]++
		}
		return nil
	}
	if err := n.pending.ForEachChunk(collect); err != nil {
		return nil, err
	}
	if err := n.pushed.ForEachChunk(collect); err != nil {
		return nil, err
	}
	avc := &split.NumericAVC{
		Values: make([]float64, 0, len(m)),
		Counts: make([][]int64, 0, len(m)),
	}
	for v := range m {
		avc.Values = append(avc.Values, v)
	}
	sort.Float64s(avc.Values)
	for _, v := range avc.Values {
		avc.Counts = append(avc.Counts, m[v])
	}
	return avc, nil
}

// processLeaf finishes a leaf node. A family above the main-memory
// switch that spilled out of memory is promoted to a BOAT subtree by a
// recursive invocation (see recurses); every other family is either left
// as a labeled leaf (StopAtThreshold, the paper's performance-experiment
// methodology, for families within the threshold) or grown with the
// main-memory algorithm (leafFamily.fit) — a fat leaf in stop mode, whose
// whole family is refit in memory after each update that touches it.
// May run concurrently for distinct leaves (see completeLeaves); the fit
// or promotion shares its work through wk, the pool worker running the
// leaf (nil runs it alone).
func (t *Tree) processLeaf(n *bnode, rdepth int, sp *obs.Span, tally *leafTally, wk *inmem.Worker) error {
	if !n.dirty {
		return nil
	}
	total := n.total()
	if t.recurses(n, rdepth) &&
		(n.promoteAttempt == 0 || total >= n.promoteAttempt+n.promoteAttempt/4) {
		t.note(evPromotions, 1)
		t.note(evRebuildTuples, total)
		rbSpan := sp.Start("rebuild")
		rbSpan.SetAttr("tuples", total)
		err := t.recurseOnFamily(n, rdepth, rbSpan, wk)
		rbSpan.End()
		if err != nil {
			return err
		}
		if n.isLeaf() {
			// The promotion ended as a stored-family leaf (the bootstrap
			// trees disagreed at this family's root); back off.
			n.promoteAttempt = total
		}
		return nil
	}
	n.dirty = false
	if t.cfg.StopAtThreshold && total <= t.cfg.StopThreshold {
		n.subtree = nil
		return nil
	}
	// If the reference builder's stopping rule fires on this family's
	// size, depth, and class histogram — all maintained eagerly — the
	// (re)fit would yield a bare leaf: skip copying and sorting the family
	// and emit the leaf directly. This is exactly the builder's own
	// first check (inmem.Config.StopBeforeSplit at subtree depth 0), so
	// exactness is preserved; it turns the per-update refit of pure or
	// unsplittable fat leaves from O(n log n) into O(classes).
	if t.cfg.growConfig(n.depth).StopBeforeSplit(total, 0, n.classCounts) {
		n.subtree = nil
		return nil
	}
	// In-memory (re)fit: full completion in non-stop mode, or the exact
	// above-threshold subtree of a fat leaf in stop mode (the growth
	// rules include the stop threshold, so the subtree matches the
	// reference either way).
	var start time.Time
	if tally.timed {
		start = time.Now()
	}
	sub, err := n.family.fit(t.cfg.growConfig(n.depth), tally, wk)
	if err != nil {
		return err
	}
	if tally.timed {
		tally.noteFit(time.Since(start))
	}
	n.subtree = sub.Root
	t.note(t.op.fit, 1)
	return nil
}

// compactBuffers applies the compaction rule to every buffer of the
// subtree rooted at n once an update pass is over: a leaf family (see
// leafFamily.compact) or a stuck set whose pending removals outnumber
// half its live rows is rewritten without them. Leaves the pass did not
// refit and pushed stuck sets would otherwise keep their removals for
// good.
func compactBuffers(n *bnode) error {
	if n == nil {
		return nil
	}
	if n.isLeaf() {
		return n.family.compact()
	}
	for _, b := range []*data.TupleBag{n.pending, n.pushed} {
		if b != nil && b.PendingRemovals() > 0 && 2*b.PendingRemovals() > b.Len() {
			if err := b.Compact(); err != nil {
				return err
			}
		}
	}
	if err := compactBuffers(n.left); err != nil {
		return err
	}
	return compactBuffers(n.right)
}
