package core

import (
	"fmt"
	"math/rand"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// rebuild discards a node whose coarse splitting criterion failed
// verification and regrows its subtree from the node's family F_n
// (Section 3.5). The family is gathered from the buffers already stored
// in the subtree — the not-yet-pushed stuck sets and the stored leaf
// families — which is the "additional scan over subsets of the data" the
// paper refers to; no scan of the original training database is needed.
// A family that spilled out of memory gets a recursive BOAT invocation
// (recurseOnFamily); a resident one turns n into a dirty stored-family
// leaf, appended to leaves, which leaf completion grows in memory like
// any frontier leaf. skip leaves the first skip tuples of n's own stuck
// set out of the family (see rebuildAfterSpillFault). rdepth is the
// BOAT-in-BOAT recursion depth of the enclosing pass, and sp the
// enclosing trace span.
func (t *Tree) rebuild(n *bnode, skip int64, rdepth int, leaves *[]*bnode, sp *obs.Span) error {
	rbSpan := sp.Start("rebuild")
	defer rbSpan.End()
	if err := t.gatherLeaf(n, skip); err != nil {
		return fmt.Errorf("core: gathering family for rebuild: %w", err)
	}
	total := n.family.Len()
	rbSpan.SetAttr("tuples", total)
	t.met.rebuildSubtrees.Inc()
	t.log.Debug("rebuilding subtree", "tuples", total, "depth", n.depth, "rdepth", rdepth)
	t.noteRebuildTuples(total)
	if t.recurses(n.family, rdepth) {
		return t.recurseOnFamily(n, rdepth, rbSpan)
	}
	*leaves = append(*leaves, n)
	return nil
}

// rebuildAfterSpillFault rebuilds the subtree at n after a storage fault
// interrupted the push of its stuck set. The buffers below n remain fully
// scannable even when poisoned, so the family can still be gathered.
// The first routed tuples of the stuck set already reached a buffer below
// n before the fault (a failed route adds its tuple nowhere), so the
// gathered family takes them from there and leaves them out of the stuck
// set: every tuple is gathered exactly once.
func (t *Tree) rebuildAfterSpillFault(n *bnode, routed int64, rdepth int, leaves *[]*bnode, sp *obs.Span) error {
	t.met.spillRebuilds.Inc()
	t.log.Warn("storage fault on spill path; rebuilding subtree", "depth", n.depth, "rdepth", rdepth)
	t.mutateStats(func(b *BuildStats, _ *UpdateStats) { b.SpillRebuilds++ })
	return t.rebuild(n, routed, rdepth, leaves, sp)
}

// gatherLeaf turns n into a dirty stored-family leaf holding F_n, leaving
// out the first skip tuples of n's own stuck set. Rebuilds and demotions
// (the reference stopping rules turned n into a leaf, typically after
// deletions) both start here; the caller queues the leaf for completion.
func (t *Tree) gatherLeaf(n *bnode, skip int64) error {
	fam := data.NewTupleBagEnv(t.schema, t.spillEnv(t.budget))
	if err := gatherFamily(n, fam, skip); err != nil {
		fam.Close()
		return err
	}
	counts := make([]int64, len(n.classCounts))
	copy(counts, n.classCounts)
	releaseNodeState(n)
	n.classCounts = counts
	n.leaf = true
	n.family = fam
	n.dirty = true
	return nil
}

// gatherFamily streams F_n into fam: the stored families of the leaves of
// the subtree plus any stuck tuples not yet pushed down, leaving out the
// first skip tuples of n's own stuck set. Pushed stuck sets are skipped —
// their tuples already live in buffers further down. Rows move chunk by
// chunk, net of each buffer's pending removals.
func gatherFamily(n *bnode, fam *data.TupleBag, skip int64) error {
	if n == nil {
		return nil
	}
	if n.isLeaf() {
		return n.family.ForEachChunk(fam.AddChunkRows)
	}
	if n.pending != nil && n.pending.Len() > 0 {
		err := n.pending.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
			if skip > 0 {
				if idx == nil {
					idx = make([]int32, ch.Len())
					for r := range idx {
						idx[r] = int32(r)
					}
				}
				k := min(skip, int64(len(idx)))
				idx, skip = idx[k:], skip-k
				if len(idx) == 0 {
					return nil
				}
			}
			return fam.AddChunkRows(ch, idx)
		})
		if err != nil {
			return err
		}
	}
	if err := gatherFamily(n.left, fam, 0); err != nil {
		return err
	}
	return gatherFamily(n.right, fam, 0)
}

// releaseNodeState closes every buffer in the subtree rooted at n and
// clears n's per-node state, leaving n ready to be repurposed.
func releaseNodeState(n *bnode) {
	closeSubtree(n.left)
	closeSubtree(n.right)
	if n.pending != nil {
		n.pending.Close()
	}
	if n.pushed != nil {
		n.pushed.Close()
	}
	if n.family != nil {
		n.family.Close()
	}
	n.left, n.right = nil, nil
	n.coarse = nil
	n.crit = split.Split{}
	n.catCounts = nil
	n.hist = nil
	n.moments = nil
	n.lowCounts, n.highCounts = nil, nil
	n.eqLow = 0
	n.pending, n.pushed = nil, nil
	n.routedThr = 0
	n.leaf = false
	n.family = nil
	n.subtree = nil
	n.dirty = false
	n.promoteAttempt = 0
}

// recurses reports whether the family of a frontier or failed node gets a
// recursive BOAT invocation: only a family above the main-memory switch
// that spilled to disk because it did not fit MemBudgetTuples, while the
// recursion budget lasts. That is the paper's rule — BOAT recurses on a
// family because it does not fit in memory. A resident family is grown
// with one in-memory build instead, like a fat-leaf refit.
func (t *Tree) recurses(fam *data.TupleBag, rdepth int) bool {
	return t.cfg.StopThreshold > 0 && fam.Len() > t.cfg.StopThreshold &&
		fam.Spilled() && rdepth < t.cfg.MaxRebuildRecursion
}

// recurseOnFamily replaces the stored-family leaf n with the subtree a
// recursive BOAT invocation grows over its family: a sample of the
// family, bootstrap trees, a cleanup scan of the family and verification.
// The invocation runs at rdepth+1, so concurrent rebuilds of distinct
// nodes track their own depth, and records its phases under sp. If the
// bootstrap trees disagree at the family's root, the result is again a
// stored-family leaf.
func (t *Tree) recurseOnFamily(n *bnode, rdepth int, sp *obs.Span) error {
	fam := n.family
	n.family = nil
	defer fam.Close()
	total := fam.Len()
	t.met.frontierRebuilds.Inc()
	t.log.Debug("recursive BOAT on a spilled family", "tuples", total, "depth", n.depth, "rdepth", rdepth)
	t.mutateStats(func(b *BuildStats, upd *UpdateStats) {
		if upd == nil {
			b.FrontierRebuilds++
		}
	})
	rng := rand.New(rand.NewSource(t.cfg.Seed + 7919*t.seedCounter.Add(1)))
	sample, err := data.ReservoirSample(fam.Source(), t.cfg.SampleSize, rng)
	if err != nil {
		return err
	}
	sub, err := t.buildFromSample(fam.Source(), sample, total, n.depth, rdepth+1, sp)
	if err != nil {
		return err
	}
	*n = *sub
	return nil
}
