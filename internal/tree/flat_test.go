package tree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/split"
)

// TestClassifyEdgeCaseRouting pins down the pointer walk's edge-case
// behavior before anything asserts flat parity against it: NaN numerics
// route right (every ordered comparison with NaN is false), exact
// threshold hits route left, and categorical codes outside the subset —
// including codes the training data never saw and codes >= 64 — route
// right.
func TestClassifyEdgeCaseRouting(t *testing.T) {
	tr := testTree() // age <= 40 ? (color in {1,2} ? 0 : 1) : 1
	cases := []struct {
		name       string
		age, color float64
		want       int
	}{
		{"nan numeric routes right", math.NaN(), 1, 1},
		{"exact threshold routes left", 40, 1, 0},
		{"+inf routes right", math.Inf(1), 1, 1},
		{"-inf routes left", math.Inf(-1), 1, 0},
		{"subset member routes left", 10, 2, 0},
		{"unseen category routes right", 10, 3, 1},
		{"category >= 64 routes right", 10, 100, 1},
		{"negative category routes right", 10, -1, 1},
		{"nan category routes right", 10, math.NaN(), 1},
	}
	for _, tc := range cases {
		tp := data.Tuple{Values: []float64{tc.age, tc.color}}
		if got := tr.Classify(tp); got != tc.want {
			t.Errorf("%s: Tree.Classify = %d, want %d", tc.name, got, tc.want)
		}
	}

	// The flat compilation must agree on every one of them.
	f, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		tp := data.Tuple{Values: []float64{tc.age, tc.color}}
		if got := f.Classify(tp); got != tc.want {
			t.Errorf("%s: FlatTree.Classify = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestCompileShape(t *testing.T) {
	f, err := Compile(testTree())
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 5 || f.NumLeaves() != 3 || f.Depth() != 2 {
		t.Fatalf("shape = %d nodes / %d leaves / depth %d, want 5/3/2",
			f.NumNodes(), f.NumLeaves(), f.Depth())
	}
	if f.IsLeafNode(0) {
		t.Error("root compiled as leaf")
	}
	// BFS pair layout: children are adjacent, right = left+1.
	for n := int32(0); n < int32(f.NumNodes()); n++ {
		if f.IsLeafNode(n) {
			if f.LeftChild(n) != n || f.RightChild(n) != n {
				t.Errorf("leaf %d does not self-loop", n)
			}
			continue
		}
		if f.RightChild(n) != f.LeftChild(n)+1 {
			t.Errorf("node %d children not adjacent: left=%d right=%d",
				n, f.LeftChild(n), f.RightChild(n))
		}
		if f.LeftChild(n) <= n {
			t.Errorf("node %d child %d not after parent", n, f.LeftChild(n))
		}
	}
	if f.Schema() != testSchema() && !f.Schema().Equal(testSchema()) {
		t.Error("schema not carried through compilation")
	}
}

func TestCompileSingleLeaf(t *testing.T) {
	tr := &Tree{Schema: testSchema(), Root: &Node{Label: 1}}
	f, err := Compile(tr)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != 1 || f.Depth() != 0 {
		t.Fatalf("leaf-only tree compiled to %d nodes depth %d", f.NumNodes(), f.Depth())
	}
	if got := f.Classify(data.Tuple{Values: []float64{1, 2}}); got != 1 {
		t.Errorf("Classify = %d, want 1", got)
	}
	out := make([]int, 3)
	ch := data.NewChunk(2, 3)
	for i := 0; i < 3; i++ {
		ch.AppendTuple(data.Tuple{Values: []float64{float64(i), 0}})
	}
	f.ClassifyChunk(ch, out)
	for i, l := range out {
		if l != 1 {
			t.Errorf("chunk row %d = %d, want 1", i, l)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil); err == nil {
		t.Error("nil tree compiled")
	}
	if _, err := Compile(&Tree{Schema: testSchema()}); err == nil {
		t.Error("nil root compiled")
	}
	broken := testTree()
	broken.Root.Left = nil
	if _, err := Compile(broken); err == nil {
		t.Error("internal node with nil child compiled")
	}
	bad := testTree()
	bad.Root.Crit.Attr = 9
	if _, err := Compile(bad); err == nil {
		t.Error("out-of-range attribute compiled")
	}
}

// randomSchema builds a schema with a random mix of numeric and
// categorical attributes.
func randomSchema(rng *rand.Rand) *data.Schema {
	nAttr := 1 + rng.Intn(6)
	attrs := make([]data.Attribute, nAttr)
	for i := range attrs {
		if rng.Intn(2) == 0 {
			attrs[i] = data.Attribute{Name: "n" + string(rune('a'+i)), Kind: data.Numeric}
		} else {
			attrs[i] = data.Attribute{
				Name: "c" + string(rune('a'+i)), Kind: data.Categorical,
				Cardinality: 2 + rng.Intn(30),
			}
		}
	}
	return data.MustSchema(attrs, 2+rng.Intn(4))
}

// randomTree grows a random tree over the schema; split points and subsets
// are arbitrary (including splits no training run would produce) so the
// parity property is exercised on adversarial shapes, not just learnable
// ones.
func randomTree(rng *rand.Rand, schema *data.Schema, maxDepth int) *Tree {
	var grow func(d int) *Node
	grow = func(d int) *Node {
		if d >= maxDepth || rng.Float64() < 0.25 {
			return &Node{Label: rng.Intn(schema.ClassCount)}
		}
		a := rng.Intn(len(schema.Attributes))
		crit := split.Split{Found: true, Attr: a, Kind: schema.Attributes[a].Kind}
		if crit.Kind == data.Numeric {
			crit.Threshold = rng.NormFloat64() * 10
		} else {
			crit.Subset = rng.Uint64() & ((1 << uint(schema.Attributes[a].Cardinality)) - 1)
		}
		return &Node{Crit: crit, Left: grow(d + 1), Right: grow(d + 1)}
	}
	root := grow(0)
	if root.IsLeaf() { // ensure at least one split most of the time
		root = &Node{
			Crit:  split.Split{Found: true, Attr: 0, Kind: schema.Attributes[0].Kind, Threshold: 0},
			Left:  &Node{Label: 0},
			Right: &Node{Label: 1},
		}
		if schema.Attributes[0].Kind == data.Categorical {
			root.Crit.Threshold = 0
			root.Crit.Subset = 1
		}
	}
	return &Tree{Schema: schema, Root: root}
}

// randomTuple draws a tuple with deliberately hostile values: NaN and ±Inf
// numerics, unseen categorical codes, negative codes, and codes >= 64.
func randomTuple(rng *rand.Rand, schema *data.Schema) data.Tuple {
	vals := make([]float64, len(schema.Attributes))
	for i, a := range schema.Attributes {
		if a.Kind == data.Numeric {
			switch rng.Intn(10) {
			case 0:
				vals[i] = math.NaN()
			case 1:
				vals[i] = math.Inf(1)
			case 2:
				vals[i] = math.Inf(-1)
			default:
				vals[i] = rng.NormFloat64() * 10
			}
		} else {
			switch rng.Intn(10) {
			case 0:
				vals[i] = float64(64 + rng.Intn(100)) // beyond the bitset
			case 1:
				vals[i] = float64(-1 - rng.Intn(5)) // negative code
			default:
				vals[i] = float64(rng.Intn(a.Cardinality + 4)) // incl. unseen
			}
		}
	}
	return data.Tuple{Values: vals, Class: rng.Intn(schema.ClassCount)}
}

// TestFlatParityProperty is the satellite property test: on randomized
// trees and tuples (including NaN numerics and unseen categorical codes),
// FlatTree.Classify and ClassifyChunk are bit-identical to Tree.Classify.
func TestFlatParityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	chunkSizes := []int{1, 7, 64, 1024}
	for trial := 0; trial < 40; trial++ {
		schema := randomSchema(rng)
		tr := randomTree(rng, schema, 1+rng.Intn(9))
		f, err := Compile(tr)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		nTuples := 1 + rng.Intn(300)
		tuples := make([]data.Tuple, nTuples)
		want := make([]int, nTuples)
		for i := range tuples {
			tuples[i] = randomTuple(rng, schema)
			want[i] = tr.Classify(tuples[i])
			if got := f.Classify(tuples[i]); got != want[i] {
				t.Fatalf("trial %d tuple %d: flat Classify = %d, pointer = %d\nvalues=%v\ntree:\n%s",
					trial, i, got, want[i], tuples[i].Values, tr)
			}
		}
		for _, rows := range chunkSizes {
			ch := data.NewChunk(len(schema.Attributes), rows)
			out := make([]int, rows)
			for base := 0; base < nTuples; base += rows {
				ch.Reset()
				end := min(base+rows, nTuples)
				for i := base; i < end; i++ {
					ch.AppendTuple(tuples[i])
				}
				f.ClassifyChunk(ch, out)
				for i := base; i < end; i++ {
					if out[i-base] != want[i] {
						t.Fatalf("trial %d rows=%d tuple %d: ClassifyChunk = %d, pointer = %d\nvalues=%v\ntree:\n%s",
							trial, rows, i, out[i-base], want[i], tuples[i].Values, tr)
					}
				}
			}
		}
	}
}

// TestClassifyChunkScratchAllocs asserts the zero-allocation steady state
// of the chunk kernel with caller-owned scratch.
func TestClassifyChunkScratchAllocs(t *testing.T) {
	f, err := Compile(testTree())
	if err != nil {
		t.Fatal(err)
	}
	ch := data.NewChunk(2, 256)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 256; i++ {
		ch.AppendTuple(data.Tuple{Values: []float64{rng.Float64() * 80, float64(rng.Intn(4))}})
	}
	out := make([]int, 256)
	sc := NewClassifyScratch()
	allocs := testing.AllocsPerRun(100, func() {
		f.ClassifyChunkScratch(ch, out, sc)
	})
	if allocs != 0 {
		t.Errorf("ClassifyChunkScratch allocates %v per run, want 0", allocs)
	}
	// The pooled-scratch entry point must also be allocation-free in the
	// steady state.
	allocs = testing.AllocsPerRun(100, func() {
		f.ClassifyChunk(ch, out)
	})
	if allocs != 0 {
		t.Errorf("ClassifyChunk allocates %v per run, want 0", allocs)
	}
}
