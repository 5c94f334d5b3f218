// Package bootstrap implements the sampling phase of BOAT (Section 3.2):
// b bootstrap trees are constructed from samples drawn with replacement
// from the in-memory sample D', then intersected top-down into a coarse
// tree. At each surviving node the coarse splitting criterion restricts
// the final criterion to the bootstrap splitting attribute, with a
// confidence interval for the split point (numeric) or the exact
// splitting subset (categorical). Positions where the bootstrap trees
// disagree become unexplored frontier nodes whose subtrees BOAT builds
// from collected families after the cleanup scan.
package bootstrap

import (
	"errors"
	"math/rand"
	"sort"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/tree"
)

// Config controls the sampling phase.
type Config struct {
	// Trees is the number b of bootstrap repetitions. The paper uses 20;
	// more repetitions widen the confidence intervals, increasing the
	// confidence that the final split point falls inside.
	Trees int
	// SubsampleSize is the size of each with-replacement bootstrap sample
	// (the paper uses 50000 from a 200000-tuple sample).
	SubsampleSize int
	// WidenFraction widens each confidence interval by this fraction of
	// its width on both ends (0 reproduces the raw bootstrap min/max).
	WidenFraction float64
	// TreeConfig are the growth rules for the bootstrap trees; callers
	// scale any family-size thresholds by the sampling fraction.
	TreeConfig inmem.Config
	// Seed drives the resampling. Tree i draws its bootstrap sample from
	// a private RNG seeded with Seed + i, so the b trees — and therefore
	// the coarse tree — are bit-identical whichever worker grows which.
	Seed int64
	// Span, when non-nil, is the enclosing trace span; BuildCoarse records
	// the tree-growth and intersection phases as child spans under it.
	Span *obs.Span
}

// Node is one node of the coarse tree. Leaves of the coarse tree are
// frontier positions: either all bootstrap trees agreed the position is a
// leaf, or they disagreed on the splitting criterion; in both cases BOAT
// collects the node's family during the cleanup scan and finishes the
// subtree from it.
type Node struct {
	// Attr and Kind identify the coarse splitting attribute.
	Attr int
	Kind data.Kind
	// Subset is the exact coarse splitting subset (categorical).
	Subset uint64
	// Lo, Hi is the confidence interval for the final split point
	// (numeric): with high probability the final split point x* satisfies
	// Lo <= x* <= Hi. Tuples with value in (Lo, Hi] cannot be routed
	// during the cleanup scan and are kept at the node (the set S_n).
	Lo, Hi float64
	// Median is a representative split point (the lower median of the
	// bootstrap split points), used to route sample tuples when building
	// discretizations; it never influences the final tree.
	Median float64
	// Points are the b bootstrap split points (sorted), retained for
	// diagnostics and the instability analysis of Figure 12.
	Points []float64
	// Left, Right are the children; nil children mark the frontier.
	Left, Right *Node
}

// Stats summarizes a sampling phase for diagnostics.
type Stats struct {
	// CoarseNodes is the number of internal nodes of the coarse tree.
	CoarseNodes int
	// Disagreements is the number of positions where the bootstrap trees
	// disagreed on the splitting attribute or subset.
	Disagreements int
}

// BuildCoarse runs the sampling phase on the in-memory sample, on the
// pool worker w (nil runs it inline). The b bootstrap trees are the items
// of one fork (inmem.Fork): the sample is only read, and each tree owns
// its RNG and bootstrap sample.
func BuildCoarse(schema *data.Schema, sample []data.Tuple, cfg Config, w *inmem.Worker) (*Node, Stats, error) {
	var st Stats
	if cfg.Trees < 2 {
		return nil, st, errors.New("bootstrap: need at least 2 bootstrap trees")
	}
	if len(sample) == 0 {
		return nil, st, nil // empty sample: the whole tree is frontier
	}
	sub := cfg.SubsampleSize
	if sub <= 0 {
		sub = len(sample)
	}
	growSpan := cfg.Span.Start("bootstrap-trees")
	growSpan.SetAttr("trees", cfg.Trees)
	growSpan.SetAttr("subsample", sub)
	roots := make([]*tree.Node, cfg.Trees)
	_ = inmem.Fork(w, cfg.Trees, func(_ *inmem.Worker, i int) error { // growing a tree cannot fail
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		boot := data.SampleWithReplacement(sample, sub, rng)
		roots[i] = inmem.Build(schema, boot, cfg.TreeConfig).Root
		return nil
	})
	growSpan.End()
	intSpan := cfg.Span.Start("intersect")
	root := intersect(schema, roots, cfg.WidenFraction, &st)
	intSpan.SetAttr("coarse_nodes", st.CoarseNodes)
	intSpan.End()
	return root, st, nil
}

// intersect merges the bootstrap trees top-down per Section 3.2: keep a
// node only if every bootstrap tree splits here on the same attribute
// (and, for categorical attributes, the same subset); otherwise the
// position becomes frontier.
func intersect(schema *data.Schema, nodes []*tree.Node, widen float64, st *Stats) *Node {
	for _, n := range nodes {
		if n == nil || n.IsLeaf() {
			return nil
		}
	}
	first := nodes[0].Crit
	for _, n := range nodes[1:] {
		if n.Crit.Attr != first.Attr || n.Crit.Kind != first.Kind {
			st.Disagreements++
			return nil
		}
		if first.Kind == data.Categorical && n.Crit.Subset != first.Subset {
			st.Disagreements++
			return nil
		}
	}
	out := &Node{Attr: first.Attr, Kind: first.Kind}
	if first.Kind == data.Categorical {
		out.Subset = first.Subset
	} else {
		pts := make([]float64, len(nodes))
		for i, n := range nodes {
			pts[i] = n.Crit.Threshold
		}
		sort.Float64s(pts)
		out.Points = pts
		out.Lo, out.Hi = pts[0], pts[len(pts)-1]
		out.Median = pts[(len(pts)-1)/2]
		if widen > 0 {
			w := (out.Hi - out.Lo) * widen
			out.Lo -= w
			out.Hi += w
		}
	}
	st.CoarseNodes++
	lefts := make([]*tree.Node, len(nodes))
	rights := make([]*tree.Node, len(nodes))
	for i, n := range nodes {
		lefts[i] = n.Left
		rights[i] = n.Right
	}
	out.Left = intersect(schema, lefts, widen, st)
	out.Right = intersect(schema, rights, widen, st)
	return out
}
