package core

import (
	"fmt"

	"github.com/boatml/boat/internal/bootstrap"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/discretize"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// coarseCrit is the coarse splitting criterion at a node (Figure 2 of the
// paper): the coarse splitting attribute plus either the exact splitting
// subset (categorical) or a confidence interval for the split point
// (numeric). It governs how tuples are routed during cleanup scans and
// updates: numeric tuples with value in (lo, hi] cannot be routed and
// stick at the node.
type coarseCrit struct {
	attr   int
	kind   data.Kind
	subset uint64
	lo, hi float64
}

// bnode is a node of the stateful BOAT tree. Internal nodes carry the
// coarse criterion, the statistics gathered by cleanup scans, and the
// stuck sets; leaf nodes (frontier positions, main-memory switch points,
// and genuine leaves) carry their stored family and an in-memory-built
// subtree (in stop mode, only above the stop threshold).
type bnode struct {
	depth       int
	classCounts []int64

	// Internal-node state.
	coarse      *coarseCrit
	crit        split.Split // final criterion; valid after processing
	left, right *bnode
	catCounts   []*split.CatAVC         // per categorical attribute
	hist        []*discretize.Histogram // per numeric attribute
	moments     *split.Moments          // only for moment-based methods
	lowCounts   []int64                 // numeric coarse: classes of v <= lo
	highCounts  []int64                 // numeric coarse: classes of v > hi
	eqLow       int64                   // tuples with v == lo (is lo an observed candidate?)
	pending     *data.TupleBag          // stuck tuples not yet pushed to children
	pushed      *data.TupleBag          // stuck tuples already pushed (by routedThr)
	routedThr   float64                 // threshold the pushed set was routed by

	// Leaf state.
	leaf    bool
	family  *leafFamily
	subtree *tree.Node // in-memory completion (nil for stop-mode leaves within the threshold)
	dirty   bool
	// promoteAttempt is the family size at the last promotion of this
	// spilled fat leaf that ended as a stored-family leaf (bootstrap
	// disagreement at the family's root). Until the family outgrows it by
	// 25%, further attempts would almost surely fail again, so the node is
	// kept exact with plain in-memory refits instead. Resident fat leaves
	// are never promoted and leave it 0.
	promoteAttempt int64
}

func (n *bnode) isLeaf() bool { return n.leaf }

func (n *bnode) total() int64 {
	var s int64
	for _, v := range n.classCounts {
		s += v
	}
	return s
}

// newLeaf allocates a leaf bnode whose stored family is an empty bag.
func (t *Tree) newLeaf(depth int) *bnode {
	env := t.spillEnv(t.budget)
	return &bnode{
		depth:       depth,
		leaf:        true,
		dirty:       true,
		classCounts: make([]int64, t.schema.ClassCount),
		family:      newLeafFamily(data.NewTupleBagEnv(t.schema, env), env),
	}
}

// newInternal allocates an internal bnode for a coarse criterion,
// with zeroed statistics.
func (t *Tree) newInternal(depth int, c *coarseCrit) *bnode {
	n := &bnode{
		depth:       depth,
		coarse:      c,
		classCounts: make([]int64, t.schema.ClassCount),
		catCounts:   make([]*split.CatAVC, len(t.schema.Attributes)),
		hist:        make([]*discretize.Histogram, len(t.schema.Attributes)),
	}
	for i, a := range t.schema.Attributes {
		if a.Kind == data.Categorical {
			n.catCounts[i] = split.NewCatAVC(a.Cardinality, t.schema.ClassCount)
		}
	}
	if t.momentBased != nil {
		n.moments = split.NewMoments(t.schema)
	}
	if c.kind == data.Numeric {
		n.lowCounts = make([]int64, t.schema.ClassCount)
		n.highCounts = make([]int64, t.schema.ClassCount)
		n.pending = data.NewTupleBagEnv(t.schema, t.spillEnv(t.budget))
		n.pushed = data.NewTupleBagEnv(t.schema, t.spillEnv(t.budget))
	}
	return n
}

// skeletonFromCoarse converts the sampling phase's coarse tree into bnodes
// (frontier positions become leaves) and then computes each internal
// node's discretizations from the sample, which the partitioning
// reorders in place.
func (t *Tree) skeletonFromCoarse(cn *bootstrap.Node, sample []data.Tuple, depth int) *bnode {
	n := t.buildSkeleton(cn, depth)
	t.attachDiscretizations(n, cn, sample, make([]data.Tuple, 0, len(sample)))
	return n
}

func (t *Tree) buildSkeleton(cn *bootstrap.Node, depth int) *bnode {
	if cn == nil {
		return t.newLeaf(depth)
	}
	c := &coarseCrit{attr: cn.Attr, kind: cn.Kind, subset: cn.Subset, lo: cn.Lo, hi: cn.Hi}
	n := t.newInternal(depth, c)
	n.left = t.buildSkeleton(cn.Left, depth+1)
	n.right = t.buildSkeleton(cn.Right, depth+1)
	return n
}

// attachDiscretizations routes the sample down the coarse tree, computes
// the sample AVC-group at each internal node, derives the node's estimated
// minimum impurity, and builds the per-attribute histogram boundaries
// (forcing the coarse attribute's interval endpoints to be boundaries so
// no bucket straddles the interval). Nodes with empty sample families get
// trivial single-bucket histograms, whose loose bounds simply make
// verification conservative.
// The sample is partitioned in place (stably) at every level.
func (t *Tree) attachDiscretizations(n *bnode, cn *bootstrap.Node, sample []data.Tuple, scratch []data.Tuple) {
	if n.isLeaf() || cn == nil {
		return
	}
	if t.impurityBased != nil {
		// Histograms feed Lemma 3.1 and are only needed for
		// impurity-based verification; moment-based methods verify by
		// exact recomputation from the moments.
		stats := split.BuildNodeStats(t.schema, sample)
		estMin := t.cfg.Method.BestSplit(stats).Quality
		for i, a := range t.schema.Attributes {
			if a.Kind != data.Numeric {
				continue
			}
			var bounds []float64
			if avc := stats.Num[i]; avc != nil {
				bounds = discretize.Boundaries(t.crit(), avc, stats.ClassTotals, estMin, t.cfg.BucketBudget)
			}
			if i == n.coarse.attr && n.coarse.kind == data.Numeric {
				bounds = discretize.InsertBoundaries(bounds, n.coarse.lo, n.coarse.hi)
			}
			n.hist[i] = discretize.NewHistogram(bounds, t.schema.ClassCount)
		}
	}
	// Partition the sample by the coarse node's own predicate and
	// recurse: a sample tuple goes left when its value is at most the
	// bootstrap median (Lo <= Median <= Hi, so the interval ends agree),
	// or when its code is in the categorical subset. The stable in-place
	// partition (lefts compacted forward, rights staged through the
	// shared scratch) needs one scratch buffer for the whole skeleton
	// instead of two fresh slices per internal node.
	route := split.Split{Found: true, Attr: cn.Attr, Kind: cn.Kind, Threshold: cn.Median, Subset: cn.Subset}
	w := 0
	scratch = scratch[:0]
	for _, tp := range sample {
		if route.Left(tp) {
			sample[w] = tp
			w++
		} else {
			scratch = append(scratch, tp)
		}
	}
	copy(sample[w:], scratch)
	t.attachDiscretizations(n.left, cn.Left, sample[:w], scratch)
	t.attachDiscretizations(n.right, cn.Right, sample[w:], scratch)
}

// crit returns the impurity criterion used for discretization and
// verification. Moment-based methods never consult it for their own
// verification, but the discretizer still needs a concave function to
// place boundaries; gini is used then.
func (t *Tree) crit() split.Criterion {
	if t.impurityBased != nil {
		return t.impurityBased.Criterion()
	}
	return split.Gini
}

// checkConsistency validates structural invariants of the subtree for
// tests: class counts are non-negative, internal nodes' counts equal the
// sum of children plus unpushed stuck tuples, and leaf families match the
// leaf's class counts (see leafFamily.check).
func (n *bnode) checkConsistency(schema *data.Schema) error {
	for c, v := range n.classCounts {
		if v < 0 {
			return fmt.Errorf("core: negative class count %d for class %d", v, c)
		}
	}
	if n.isLeaf() {
		return n.family.check(n.total())
	}
	expect := n.left.total() + n.right.total()
	if n.pending != nil {
		expect += n.pending.Len()
	}
	if expect != n.total() {
		return fmt.Errorf("core: node total %d != children+pending %d", n.total(), expect)
	}
	if err := n.left.checkConsistency(schema); err != nil {
		return err
	}
	return n.right.checkConsistency(schema)
}

// closeSubtree releases all buffers in the subtree.
func closeSubtree(n *bnode) {
	if n == nil {
		return
	}
	if n.family != nil {
		n.family.close()
	}
	if n.pending != nil {
		n.pending.Close()
	}
	if n.pushed != nil {
		n.pushed.Close()
	}
	closeSubtree(n.left)
	closeSubtree(n.right)
}
