package inmem

import (
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// BuildNaive constructs the decision tree with per-node AVC re-sorting —
// the straightforward instantiation of the Figure 1 schema. Build (in
// attrlist.go) is the production path; BuildNaive is the independent
// oracle the tests cross-check it against. The tuple slice is reordered in
// place during recursive partitioning; pass an owned slice.
func BuildNaive(schema *data.Schema, tuples []data.Tuple, cfg Config) *tree.Tree {
	return &tree.Tree{Schema: schema, Root: buildNode(schema, tuples, cfg, 0)}
}

func buildNode(schema *data.Schema, tuples []data.Tuple, cfg Config, depth int) *tree.Node {
	classTotals := make([]int64, schema.ClassCount)
	for _, t := range tuples {
		classTotals[t.Class]++
	}
	n := &tree.Node{ClassCounts: classTotals, Label: tree.MajorityLabel(classTotals)}
	if cfg.StopBeforeSplit(int64(len(tuples)), depth, classTotals) {
		return n
	}
	stats := split.BuildNodeStats(schema, tuples)
	best := cfg.Method.BestSplit(stats)
	if !best.Found {
		return n
	}
	n.Crit = best
	left := Partition(tuples, best)
	n.Left = buildNode(schema, tuples[:left], cfg, depth+1)
	n.Right = buildNode(schema, tuples[left:], cfg, depth+1)
	return n
}

// Partition reorders tuples so the first returned count of them route left
// under the criterion, preserving nothing about the original order.
func Partition(tuples []data.Tuple, crit split.Split) int {
	i, j := 0, len(tuples)
	for i < j {
		if crit.Left(tuples[i]) {
			i++
		} else {
			j--
			tuples[i], tuples[j] = tuples[j], tuples[i]
		}
	}
	return i
}

func TestPartition(t *testing.T) {
	tuples := []data.Tuple{
		{Values: []float64{1, 0}, Class: 0},
		{Values: []float64{9, 0}, Class: 1},
		{Values: []float64{2, 0}, Class: 0},
		{Values: []float64{8, 0}, Class: 1},
	}
	crit := split.Split{Found: true, Attr: 0, Kind: data.Numeric, Threshold: 5}
	n := Partition(tuples, crit)
	if n != 2 {
		t.Fatalf("left count = %d, want 2", n)
	}
	for _, tp := range tuples[:n] {
		if tp.Values[0] > 5 {
			t.Errorf("left partition has %v", tp)
		}
	}
	for _, tp := range tuples[n:] {
		if tp.Values[0] <= 5 {
			t.Errorf("right partition has %v", tp)
		}
	}
}

func BenchmarkBuildNaive(b *testing.B) {
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.1}, 100_000, 5)
	tuples, _ := data.ReadAll(src)
	cfg := Config{Method: split.NewGini(), StopThreshold: 15_000, StopAtThreshold: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildNaive(src.Schema(), data.CloneTuples(tuples), cfg)
	}
}
