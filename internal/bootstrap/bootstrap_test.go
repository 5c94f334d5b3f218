package bootstrap

import (
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

func cfg(seed int64) Config {
	return Config{
		Trees:         10,
		SubsampleSize: 1000,
		TreeConfig:    inmem.Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 20},
		Seed:          seed,
	}
}

func TestBuildCoarseStrongSignal(t *testing.T) {
	// A strongly separable concept: every bootstrap tree should agree at
	// the root, and the confidence interval should contain the
	// full-sample split point.
	src := gen.MustSource(gen.Config{Function: 2}, 4000, 5)
	sample, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	full := inmem.Build(src.Schema(), data.CloneTuples(sample), inmem.Config{
		Method: split.NewGini(), MaxDepth: 4, MinSplit: 20,
	})
	root, stats, err := BuildCoarse(src.Schema(), sample, cfg(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		t.Fatal("bootstrap trees disagreed at the root of a clean concept")
	}
	if stats.CoarseNodes == 0 {
		t.Fatal("no coarse nodes")
	}
	refCrit := full.Root.Crit
	if root.Attr != refCrit.Attr {
		t.Fatalf("coarse attribute %d != full-sample attribute %d", root.Attr, refCrit.Attr)
	}
	if root.Kind == data.Numeric {
		if refCrit.Threshold < root.Lo || refCrit.Threshold > root.Hi {
			t.Errorf("full-sample split %v outside interval [%v,%v]",
				refCrit.Threshold, root.Lo, root.Hi)
		}
		if len(root.Points) != 10 {
			t.Errorf("expected 10 bootstrap points, got %d", len(root.Points))
		}
		if root.Median < root.Lo || root.Median > root.Hi {
			t.Errorf("median %v outside [%v,%v]", root.Median, root.Lo, root.Hi)
		}
	}
}

func TestBuildCoarseInstabilityStopsGrowth(t *testing.T) {
	// The Figure 12 dataset: two exactly tied impurity minima make
	// bootstrap split points bimodal; either the root interval must span
	// both minima or (if deeper structure differs) growth stops early.
	src := gen.InstabilitySource(20000, 3)
	sample, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	root, _, err := BuildCoarse(src.Schema(), sample, cfg(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if root == nil {
		return // disagreement at the root: the expected outcome is fine
	}
	if root.Attr != 0 {
		t.Fatalf("root attribute %d, want 0", root.Attr)
	}
	// Bimodal split points: the interval must span (or nearly span) the
	// two minima at 19 and 60 — or all repetitions landed on one minimum,
	// in which case the subtrees below will disagree instead.
	spread := root.Hi - root.Lo
	low, high := 0, 0
	for _, p := range root.Points {
		if p < 40 {
			low++
		} else {
			high++
		}
	}
	if low > 0 && high > 0 && spread < 30 {
		t.Errorf("bimodal points %v but narrow interval [%v,%v]", root.Points, root.Lo, root.Hi)
	}
	t.Logf("points=%v interval=[%v,%v] low=%d high=%d", root.Points, root.Lo, root.Hi, low, high)
}

func TestBuildCoarseWiden(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 7}, 3000, 9)
	sample, _ := data.ReadAll(src)
	c := cfg(3)
	narrow, _, err := BuildCoarse(src.Schema(), sample, c, nil)
	if err != nil || narrow == nil {
		t.Fatalf("narrow: %v", err)
	}
	c2 := cfg(3)
	c2.WidenFraction = 0.5
	wide, _, err := BuildCoarse(src.Schema(), sample, c2, nil)
	if err != nil || wide == nil {
		t.Fatalf("wide: %v", err)
	}
	if wide.Kind == data.Numeric && narrow.Kind == data.Numeric {
		if wide.Hi-wide.Lo < narrow.Hi-narrow.Lo {
			t.Errorf("widening shrank the interval: [%v,%v] vs [%v,%v]",
				wide.Lo, wide.Hi, narrow.Lo, narrow.Hi)
		}
	}
}

func TestBuildCoarseErrors(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 100, 1)
	sample, _ := data.ReadAll(src)
	bad := cfg(1)
	bad.Trees = 1
	if _, _, err := BuildCoarse(src.Schema(), sample, bad, nil); err == nil {
		t.Error("expected error for <2 bootstrap trees")
	}
	root, _, err := BuildCoarse(src.Schema(), nil, cfg(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if root != nil {
		t.Error("empty sample should produce a frontier-only coarse tree")
	}
}

func TestIntersectDisagreementPrunes(t *testing.T) {
	// With samples drawn from two different concepts (constructed by
	// splitting the sample), the coarse tree must not survive below a
	// point of disagreement; we simulate via a tiny sample and very deep
	// trees so noise dominates: the tree should be shallower than the
	// bootstrap trees themselves.
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.3}, 400, 17)
	sample, _ := data.ReadAll(src)
	c := cfg(5)
	c.SubsampleSize = 100
	c.TreeConfig.MaxDepth = 8
	c.TreeConfig.MinSplit = 2
	root, stats, err := BuildCoarse(src.Schema(), sample, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Disagreements == 0 {
		t.Error("expected disagreements on noisy tiny samples")
	}
	depth := coarseDepth(root)
	if depth >= 8 {
		t.Errorf("coarse tree depth %d: disagreement did not prune", depth)
	}
}

func coarseDepth(n *Node) int {
	if n == nil {
		return 0
	}
	l, r := coarseDepth(n.Left), coarseDepth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}
