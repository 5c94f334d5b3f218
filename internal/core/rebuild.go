package core

import (
	"fmt"
	"math/rand"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// rebuildFromSubtree discards a node whose coarse splitting criterion
// failed verification and rebuilds its subtree from the node's family F_n
// (Section 3.5): the family is gathered from the buffers already stored in
// the subtree — the not-yet-pushed stuck sets and the stored leaf
// families — which is the "additional scan over subsets of the data" the
// paper refers to; no scan of the original training database is needed.
// rdepth is the BOAT-in-BOAT recursion depth of the enclosing pass, and
// sp the enclosing trace span.
func (t *Tree) rebuildFromSubtree(n *bnode, rdepth int, sp *obs.Span) error {
	return t.rebuild(n, 0, rdepth, sp)
}

// rebuildAfterSpillFault rebuilds the subtree at n after a storage fault
// interrupted the push of its stuck set. The buffers below n remain fully
// scannable even when poisoned, so the family can still be gathered.
// The first routed tuples of the stuck set already reached a buffer below
// n before the fault (a failed route adds its tuple nowhere), so the
// gathered family takes them from there and leaves them out of the stuck
// set: every tuple is gathered exactly once.
func (t *Tree) rebuildAfterSpillFault(n *bnode, routed int64, rdepth int, sp *obs.Span) error {
	t.met.spillRebuilds.Inc()
	t.log.Warn("storage fault on spill path; rebuilding subtree", "depth", n.depth, "rdepth", rdepth)
	t.mutateStats(func(b *BuildStats, _ *UpdateStats) { b.SpillRebuilds++ })
	return t.rebuild(n, routed, rdepth, sp)
}

// rebuild gathers F_n — leaving out the first skip tuples of n's own stuck
// set — and installs the subtree finishNodeFromFamily grows from it.
func (t *Tree) rebuild(n *bnode, skip int64, rdepth int, sp *obs.Span) error {
	rbSpan := sp.Start("rebuild")
	defer rbSpan.End()
	fam := data.NewTupleBagEnv(t.schema, t.spillEnv(t.budget))
	if err := gatherFamily(n, fam, skip); err != nil {
		fam.Close()
		return fmt.Errorf("core: gathering family for rebuild: %w", err)
	}
	rbSpan.SetAttr("tuples", fam.Len())
	t.met.rebuildSubtrees.Inc()
	t.log.Debug("rebuilding subtree", "tuples", fam.Len(), "depth", n.depth, "rdepth", rdepth)
	t.noteRebuildTuples(fam.Len())
	counts := make([]int64, len(n.classCounts))
	copy(counts, n.classCounts)
	releaseNodeState(n)
	n.classCounts = counts
	return t.finishNodeFromFamily(n, fam, rdepth, rbSpan)
}

// demoteToLeaf converts an internal node into a leaf because the reference
// stopping rules say so (the family became pure or too small, typically
// after deletions). The caller (processInternal) queues the demoted leaf
// for completion alongside the other leaves of the pass.
func (t *Tree) demoteToLeaf(n *bnode) error {
	fam := data.NewTupleBagEnv(t.schema, t.spillEnv(t.budget))
	if err := gatherFamily(n, fam, 0); err != nil {
		fam.Close()
		return fmt.Errorf("core: gathering family for demotion: %w", err)
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

// finishNodeFromFamily installs the correct subtree at n given its
// complete family. Families above the main-memory threshold are rebuilt by
// a recursive BOAT invocation over the buffered family (bounded by
// MaxRebuildRecursion, threaded through as rdepth so that concurrent
// rebuilds of distinct nodes track their own depth); everything else
// becomes a stored-family leaf, completed in memory. sp is the enclosing
// trace span: a recursive BOAT invocation records its phases under it.
func (t *Tree) finishNodeFromFamily(n *bnode, fam *data.TupleBag, rdepth int, sp *obs.Span) error {
	total := fam.Len()
	if t.cfg.StopThreshold > 0 && total > t.cfg.StopThreshold &&
		rdepth < t.cfg.MaxRebuildRecursion {
		rng := rand.New(rand.NewSource(t.cfg.Seed + 7919*t.seedCounter.Add(1)))
		sample, err := data.ReservoirSample(fam.Source(), t.cfg.SampleSize, rng)
		if err == nil {
			var sub *bnode
			sub, err = t.buildFromSample(fam.Source(), sample, total, n.depth, rdepth+1, sp)
			if err == nil {
				fam.Close()
				*n = *sub
				return nil
			}
		}
		fam.Close()
		return err
	}
	// Main-memory path: the node keeps its family as a stored-family
	// leaf. Small families in stop mode stay labeled leaves; everything
	// else (including oversized families that exhausted the recursion
	// budget — the rare pathological case the paper notes) is grown with
	// the main-memory algorithm, whose stopping rules include the stop
	// threshold, so the result still matches the reference exactly.
	counts := make([]int64, t.schema.ClassCount)
	if err := fam.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
		if idx == nil {
			for _, c := range ch.Classes() {
				counts[c]++
			}
			return nil
		}
		for _, r := range idx {
			counts[ch.Class(int(r))]++
		}
		return nil
	}); err != nil {
		fam.Close()
		return err
	}
	n.leaf = true
	n.family = fam
	n.classCounts = counts
	n.dirty = false
	n.subtree = nil
	if t.cfg.StopAtThreshold && total <= t.cfg.StopThreshold {
		return nil
	}
	tuples, err := fam.Materialize()
	if err != nil {
		return err
	}
	n.subtree = inmem.Build(t.schema, tuples, t.cfg.growConfig(n.depth)).Root
	t.mutateStats(func(b *BuildStats, upd *UpdateStats) {
		if upd == nil {
			b.InMemoryLeaves++
			t.met.leavesInMemory.Inc()
		} else {
			upd.RefittedLeaves++
			t.met.leavesRefitted.Inc()
		}
	})
	return nil
}
