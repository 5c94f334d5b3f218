package core

import (
	"fmt"
	"math/rand"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// rebuild discards a node whose coarse splitting criterion failed
// verification and regrows its subtree from the node's family F_n
// (Section 3.5). The family is gathered by rule from the buffers already
// stored in the subtree — the stuck sets and the stored leaf families —
// which is the "additional scan over subsets of the data" the paper
// refers to; no scan of the original training database is needed. A
// family that spilled out of memory gets a recursive BOAT invocation
// (recurseOnFamily); a resident one turns n into a dirty stored-family
// leaf, appended to leaves, which leaf completion grows in memory like
// any frontier leaf. rdepth is the BOAT-in-BOAT recursion depth of the
// enclosing pass, sp the enclosing trace span and wk the pool worker
// running the pass.
func (t *Tree) rebuild(n *bnode, rule familyRule, rdepth int, leaves *[]*bnode, sp *obs.Span, wk *inmem.Worker) error {
	rbSpan := sp.Start("rebuild")
	defer rbSpan.End()
	if err := t.gatherLeaf(n, rule); err != nil {
		return fmt.Errorf("core: gathering family for rebuild: %w", err)
	}
	total := n.total()
	rbSpan.SetAttr("tuples", total)
	t.note(evRebuilds, 1)
	t.note(evRebuildTuples, total)
	t.log.Debug("rebuilding subtree", "tuples", total, "depth", n.depth, "rdepth", rdepth)
	if t.recurses(n, rdepth) {
		return t.recurseOnFamily(n, rdepth, rbSpan, wk)
	}
	*leaves = append(*leaves, n)
	return nil
}

// rebuildAfterSpillFault rebuilds the subtree at n after a storage fault
// interrupted the push or the migration of its stuck set, gathering F_n
// by rule. The buffers below n remain fully scannable even when poisoned,
// so the family can still be gathered.
func (t *Tree) rebuildAfterSpillFault(n *bnode, rule familyRule, rdepth int, leaves *[]*bnode, sp *obs.Span, wk *inmem.Worker) error {
	t.note(evSpillRebuilds, 1)
	t.log.Warn("storage fault on spill path; rebuilding subtree", "depth", n.depth, "rdepth", rdepth)
	return t.rebuild(n, rule, rdepth, leaves, sp, wk)
}

// familyRule names where gatherLeaf finds the family F_n of an internal
// node n. F_n is the node's stuck set S_n — pending, or already pushed
// into the children — plus the tuples the routers sent past n, whose
// value of n's coarse attribute lies outside (lo, hi]. Stuck tuples that
// reached the subtree did so only through n's push and migration.
type familyRule int

const (
	// fromBuffers: n's pending stuck set plus every row stored below n.
	// Exact whenever the subtree is consistent: after a failed
	// verification and on demotion.
	fromBuffers familyRule = iota
	// fromStuckSets: n's pending and pushed stuck sets plus the rows
	// stored below n whose coarse value lies outside (lo, hi]. Exact after
	// a fault in the push's or the migration's routing, however many rows
	// of the failing step landed: every row inside (lo, hi] below n came
	// from the stuck sets and is taken from there instead.
	fromStuckSets
	// fromSubtree: the rows stored below n only. Exact after a fault while
	// recording the push in n's pushed set: the routing had finished, so
	// all of S_n was already below n.
	fromSubtree
)

// gatherLeaf turns n into a dirty stored-family leaf holding F_n,
// gathered by rule. Rebuilds and demotions (the reference stopping rules
// turned n into a leaf, typically after deletions) both start here; the
// caller queues the leaf for completion. F_n's size is n's class-count
// total, so it lands in a family presized to it, with an insert's budget
// fallback (see leafFamily.apply): a family the budget cannot hold ends
// as a bag that spilled. The presize never exceeds the budget's free
// room, and dangling removals, which drive the counts below zero, make
// it 0: the gather then fails on the bags' unmatched removals.
func (t *Tree) gatherLeaf(n *bnode, rule familyRule) error {
	size := max(n.total(), 0)
	if b := t.budget; b.Limit < 0 {
		size = 0
	} else if b.Limit > 0 {
		size = min(size, max(b.Limit-b.Used(), 0))
	}
	fam := newPresizedFamily(t.schema, t.spillEnv(t.budget), size)
	add := func(ch *data.Chunk, idx []int32) error { return fam.apply(ch, idx, +1) }
	if err := gatherFamily(n, add, rule); err != nil {
		fam.close()
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

// gatherFamily streams F_n into add by rule, chunk by chunk, net of each
// buffer's pending removals.
func gatherFamily(n *bnode, add func(*data.Chunk, []int32) error, rule familyRule) error {
	if rule == fromBuffers {
		return gatherRows(n, add)
	}
	if rule == fromStuckSets {
		if err := n.pending.ForEachChunk(add); err != nil {
			return err
		}
		if err := n.pushed.ForEachChunk(add); err != nil {
			return err
		}
		add = outsideInterval(n.coarse, add)
	}
	if err := gatherRows(n.left, add); err != nil {
		return err
	}
	return gatherRows(n.right, add)
}

// gatherRows streams the rows stored in the subtree rooted at n into add:
// the stored families of its leaves plus the stuck tuples not yet pushed
// down. Pushed stuck sets are skipped — their tuples already live in
// buffers further down.
func gatherRows(n *bnode, add func(*data.Chunk, []int32) error) error {
	if n.isLeaf() {
		return n.family.each(add)
	}
	if n.pending != nil {
		if err := n.pending.ForEachChunk(add); err != nil {
			return err
		}
	}
	if err := gatherRows(n.left, add); err != nil {
		return err
	}
	return gatherRows(n.right, add)
}

// outsideInterval wraps add so that it only receives the rows whose value
// of the numeric coarse attribute lies outside (c.lo, c.hi].
func outsideInterval(c *coarseCrit, add func(*data.Chunk, []int32) error) func(*data.Chunk, []int32) error {
	var sel []int32
	return func(ch *data.Chunk, idx []int32) error {
		if sel = intervalRows(sel[:0], ch.Col(c.attr), idx, c.lo, c.hi, false); len(sel) == 0 {
			return nil
		}
		return add(ch, sel)
	}
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
		n.family.close()
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

// maxRebuildRecursion bounds how deeply BOAT invokes itself on the
// spilled family of a failed or frontier node before growing it with the
// main-memory algorithm anyway.
const maxRebuildRecursion = 3

// recurses reports whether the family of the frontier or failed node n
// gets a recursive BOAT invocation: only a family above the main-memory
// switch that spilled to disk because it did not fit MemBudgetTuples,
// while the recursion budget lasts. That is the paper's rule — BOAT
// recurses on a family because it does not fit in memory. A resident
// family is grown with one in-memory build instead, like a fat-leaf
// refit.
func (t *Tree) recurses(n *bnode, rdepth int) bool {
	return t.cfg.StopThreshold > 0 && n.total() > t.cfg.StopThreshold &&
		n.family.spilled() && rdepth < maxRebuildRecursion
}

// recurseOnFamily replaces the stored-family leaf n with the subtree a
// recursive BOAT invocation grows over its family: a sample of the
// family, bootstrap trees, a cleanup scan of the family and verification.
// The invocation runs at rdepth+1, so concurrent rebuilds of distinct
// nodes track their own depth, records its phases under sp, and forks on
// wk's pool rather than a pool of its own. If the bootstrap trees
// disagree at the family's root, the result is again a stored-family
// leaf.
func (t *Tree) recurseOnFamily(n *bnode, rdepth int, sp *obs.Span, wk *inmem.Worker) error {
	fam := n.family
	n.family = nil
	defer fam.close()
	total := fam.len()
	t.note(evRecursions, 1)
	t.log.Debug("recursive BOAT on a spilled family", "tuples", total, "depth", n.depth, "rdepth", rdepth)
	rng := rand.New(rand.NewSource(t.cfg.Seed + 7919*t.seedCounter.Add(1)))
	src := fam.source()
	sample, err := data.ReservoirSample(src, t.cfg.SampleSize, rng)
	if err != nil {
		return err
	}
	sub, err := t.buildFromSample(src, sample, total, n.depth, rdepth+1, sp, wk)
	if err != nil {
		return err
	}
	*n = *sub
	return nil
}
