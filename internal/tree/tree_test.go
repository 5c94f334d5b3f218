package tree

import (
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/split"
)

func testSchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "age", Kind: data.Numeric},
		{Name: "color", Kind: data.Categorical, Cardinality: 4},
	}, 2)
}

// testTree:
//
//	age <= 40 ?  left: color in {1,2} ? leaf(0) : leaf(1)
//	             right: leaf(1)
func testTree() *Tree {
	return &Tree{
		Schema: testSchema(),
		Root: &Node{
			Crit: split.Split{Found: true, Attr: 0, Kind: data.Numeric, Threshold: 40},
			Left: &Node{
				Crit:  split.Split{Found: true, Attr: 1, Kind: data.Categorical, Subset: 0b0110},
				Left:  &Node{Label: 0, ClassCounts: []int64{8, 2}},
				Right: &Node{Label: 1, ClassCounts: []int64{1, 9}},
			},
			Right: &Node{Label: 1, ClassCounts: []int64{3, 7}},
		},
	}
}

func TestClassify(t *testing.T) {
	tr := testTree()
	cases := []struct {
		age, color float64
		want       int
	}{
		{30, 1, 0},
		{40, 2, 0}, // boundary goes left
		{30, 0, 1},
		{41, 1, 1},
		{80, 3, 1},
	}
	for _, tc := range cases {
		tp := data.Tuple{Values: []float64{tc.age, tc.color}}
		if got := tr.Classify(tp); got != tc.want {
			t.Errorf("Classify(age=%v,color=%v) = %d, want %d", tc.age, tc.color, got, tc.want)
		}
	}
}

func TestTreeShapeMetrics(t *testing.T) {
	tr := testTree()
	if got := tr.NumNodes(); got != 5 {
		t.Errorf("NumNodes = %d, want 5", got)
	}
	if got := tr.NumLeaves(); got != 3 {
		t.Errorf("NumLeaves = %d, want 3", got)
	}
	if got := tr.Depth(); got != 2 {
		t.Errorf("Depth = %d, want 2", got)
	}
	single := &Tree{Schema: testSchema(), Root: &Node{Label: 1}}
	if single.Depth() != 0 || single.NumNodes() != 1 || single.NumLeaves() != 1 {
		t.Error("single-leaf tree metrics wrong")
	}
}

func TestTreeEqualAndDiff(t *testing.T) {
	a, b := testTree(), testTree()
	if !a.Equal(b) {
		t.Fatal("identical trees not Equal")
	}
	if d := a.Diff(b); d != "" {
		t.Fatalf("Diff of equal trees = %q", d)
	}

	b.Root.Crit.Threshold = 41
	if a.Equal(b) {
		t.Error("different thresholds reported Equal")
	}
	if d := a.Diff(b); !strings.Contains(d, "root") {
		t.Errorf("Diff = %q", d)
	}

	c := testTree()
	c.Root.Right.Label = 0
	if a.Equal(c) {
		t.Error("different leaf labels reported Equal")
	}
	if d := a.Diff(c); !strings.Contains(d, "label") {
		t.Errorf("Diff = %q", d)
	}

	// Shape difference.
	e := testTree()
	e.Root.Left = &Node{Label: 0}
	if a.Equal(e) {
		t.Error("different shapes reported Equal")
	}

	// Class counts are NOT part of equality (they are bookkeeping).
	f := testTree()
	f.Root.Right.ClassCounts = []int64{99, 1}
	f.Root.Right.Label = 1
	if !a.Equal(f) {
		t.Error("class counts should not affect Equal")
	}
}

func TestMisclassificationRate(t *testing.T) {
	tr := testTree()
	tuples := []data.Tuple{
		{Values: []float64{30, 1}, Class: 0}, // correct
		{Values: []float64{30, 1}, Class: 1}, // wrong
		{Values: []float64{50, 0}, Class: 1}, // correct
		{Values: []float64{50, 0}, Class: 0}, // wrong
	}
	r, err := tr.MisclassificationRate(data.NewMemSource(testSchema(), tuples))
	if err != nil {
		t.Fatal(err)
	}
	if r != 0.5 {
		t.Errorf("rate = %v, want 0.5", r)
	}
	empty, err := tr.MisclassificationRate(data.NewMemSource(testSchema(), nil))
	if err != nil || empty != 0 {
		t.Errorf("empty source rate = %v err %v", empty, err)
	}
}

func TestTreeString(t *testing.T) {
	s := testTree().String()
	for _, want := range []string{"age <= 40", "color in {1,2}", "leaf class=1"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
}

func TestMajorityLabel(t *testing.T) {
	cases := []struct {
		counts []int64
		want   int
	}{
		{[]int64{5, 3}, 0},
		{[]int64{3, 5}, 1},
		{[]int64{4, 4}, 0}, // tie: smallest index
		{[]int64{0, 0, 7}, 2},
		{[]int64{0, 0}, 0},
	}
	for _, tc := range cases {
		if got := MajorityLabel(tc.counts); got != tc.want {
			t.Errorf("MajorityLabel(%v) = %d, want %d", tc.counts, got, tc.want)
		}
	}
}
