package inmem

import (
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

func testSchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "c", Kind: data.Categorical, Cardinality: 3},
	}, 2)
}

func TestBuildSeparableData(t *testing.T) {
	// class = 0 iff x <= 5: one split suffices.
	var tuples []data.Tuple
	for i := 0; i < 100; i++ {
		x := float64(i % 10)
		class := 1
		if x <= 5 {
			class = 0
		}
		tuples = append(tuples, data.Tuple{Values: []float64{x, float64(i % 3)}, Class: class})
	}
	tr := Build(testSchema(), tuples, Config{Method: split.NewGini()})
	if tr.Depth() != 1 {
		t.Fatalf("depth = %d, want 1:\n%s", tr.Depth(), tr)
	}
	crit := tr.Root.Crit
	if crit.Attr != 0 || crit.Threshold != 5 {
		t.Fatalf("root split %+v, want x <= 5", crit)
	}
	for _, tp := range tuples {
		if tr.Classify(tp) != tp.Class {
			t.Fatalf("misclassified %v", tp)
		}
	}
}

func TestBuildPureFamilyIsLeaf(t *testing.T) {
	var tuples []data.Tuple
	for i := 0; i < 50; i++ {
		tuples = append(tuples, data.Tuple{Values: []float64{float64(i), 0}, Class: 1})
	}
	tr := Build(testSchema(), tuples, Config{Method: split.NewGini()})
	if !tr.Root.IsLeaf() || tr.Root.Label != 1 {
		t.Fatalf("pure family should be a single leaf, got:\n%s", tr)
	}
}

func TestBuildEmptyFamily(t *testing.T) {
	tr := Build(testSchema(), nil, Config{Method: split.NewGini()})
	if !tr.Root.IsLeaf() {
		t.Fatal("empty family should be a leaf")
	}
}

func TestBuildMinSplit(t *testing.T) {
	var tuples []data.Tuple
	for i := 0; i < 10; i++ {
		tuples = append(tuples, data.Tuple{Values: []float64{float64(i), 0}, Class: i % 2})
	}
	tr := Build(testSchema(), tuples, Config{Method: split.NewGini(), MinSplit: 100})
	if !tr.Root.IsLeaf() {
		t.Fatal("MinSplit should prevent splitting")
	}
}

func TestBuildMaxDepth(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 2}, 2000, 7)
	tuples, _ := data.ReadAll(src)
	for _, d := range []int{1, 2, 3} {
		tr := Build(src.Schema(), data.CloneTuples(tuples), Config{Method: split.NewGini(), MaxDepth: d})
		if tr.Depth() > d {
			t.Errorf("MaxDepth %d produced depth %d", d, tr.Depth())
		}
	}
	// Negative MaxDepth: always a leaf (sentinel for exhausted budgets).
	tr := Build(src.Schema(), tuples, Config{Method: split.NewGini(), MaxDepth: -1})
	if !tr.Root.IsLeaf() {
		t.Error("negative MaxDepth should produce a leaf")
	}
}

func TestBuildStopAtThreshold(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 2}, 4000, 7)
	tuples, _ := data.ReadAll(src)
	tr := Build(src.Schema(), tuples, Config{
		Method: split.NewGini(), StopThreshold: 1000, StopAtThreshold: true,
	})
	// Every leaf family must have at most... actually: every INTERNAL
	// node must be above the threshold (leaves may be any size).
	var walk func(n *tree.Node) int64
	walk = func(n *tree.Node) int64 {
		var total int64
		for _, c := range n.ClassCounts {
			total += c
		}
		if !n.IsLeaf() {
			if total <= 1000 {
				t.Errorf("internal node with family %d <= threshold", total)
			}
			walk(n.Left)
			walk(n.Right)
		}
		return total
	}
	walk(tr.Root)
}

func TestBuildDeterministic(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 3000, 13)
	tuples, _ := data.ReadAll(src)
	a := Build(src.Schema(), data.CloneTuples(tuples), Config{Method: split.NewGini(), MaxDepth: 5})
	// Shuffled input must give the identical tree (split selection is a
	// pure function of the AVC counts).
	shuffled := data.CloneTuples(tuples)
	data.Shuffle(shuffled, rand.New(rand.NewSource(99)))
	b := Build(src.Schema(), shuffled, Config{Method: split.NewGini(), MaxDepth: 5})
	if !a.Equal(b) {
		t.Fatalf("input order changed the tree: %s", a.Diff(b))
	}
}

func TestBuildClassCountsConsistent(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.1}, 2000, 3)
	tuples, _ := data.ReadAll(src)
	tr := Build(src.Schema(), tuples, Config{Method: split.NewGini(), MaxDepth: 4})
	var walk func(n *tree.Node)
	walk = func(n *tree.Node) {
		if n.IsLeaf() {
			return
		}
		for c := range n.ClassCounts {
			if n.ClassCounts[c] != n.Left.ClassCounts[c]+n.Right.ClassCounts[c] {
				t.Fatalf("class counts not additive at %v", n.Crit)
			}
		}
		walk(n.Left)
		walk(n.Right)
	}
	walk(tr.Root)
}

func TestStopBeforeSplitRules(t *testing.T) {
	cases := []struct {
		name   string
		cfg    Config
		total  int64
		depth  int
		counts []int64
		want   bool
	}{
		{"tiny family", Config{}, 1, 0, []int64{1, 0}, true},
		{"min split default", Config{}, 2, 0, []int64{1, 1}, false},
		{"custom min split", Config{MinSplit: 10}, 9, 0, []int64{5, 4}, true},
		{"pure", Config{}, 100, 0, []int64{100, 0}, true},
		{"depth hit", Config{MaxDepth: 3}, 100, 3, []int64{50, 50}, true},
		{"depth ok", Config{MaxDepth: 3}, 100, 2, []int64{50, 50}, false},
		{"threshold stop", Config{StopThreshold: 200, StopAtThreshold: true}, 150, 1, []int64{70, 80}, true},
		{"threshold no stop-mode", Config{StopThreshold: 200}, 150, 1, []int64{70, 80}, false},
	}
	for _, tc := range cases {
		if got := tc.cfg.StopBeforeSplit(tc.total, tc.depth, tc.counts); got != tc.want {
			t.Errorf("%s: StopBeforeSplit = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestBuildQuestMethod(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 7}, 3000, 5)
	tuples, _ := data.ReadAll(src)
	tr := Build(src.Schema(), tuples, Config{Method: split.NewQuestLike(), MaxDepth: 5})
	if tr.Root.IsLeaf() {
		t.Fatal("QUEST found no structure in F7 data")
	}
	rate, err := tr.MisclassificationRate(src)
	if err != nil {
		t.Fatal(err)
	}
	if rate > 0.35 {
		t.Errorf("QUEST tree misclassification %v is implausibly high", rate)
	}
}
