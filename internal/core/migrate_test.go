package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

// migSchema is a one-signal schema: the class follows x > 50 with label
// noise, y is noise. The root splits on x with a confidence interval wide
// enough to hold many stuck tuples.
func migSchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "y", Kind: data.Numeric},
	}, 2)
}

// migTuples draws n tuples with x on a 0.01 grid over [0, 100).
func migTuples(n int, seed int64) []data.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]data.Tuple, n)
	for i := range out {
		x := float64(rng.Intn(10000)) / 100
		class := 0
		if x > 50 {
			class = 1
		}
		if rng.Intn(5) == 0 {
			class = 1 - class
		}
		out[i] = data.Tuple{Values: []float64{x, rng.Float64()}, Class: class}
	}
	return out
}

// TestMigrationBothDirections moves the root's split point up, then down,
// inside its confidence interval. Raising it migrates the pushed stuck
// tuples between the two thresholds from the right child to the left;
// lowering it moves them back. After each update the migration must have
// moved tuples, the threshold must have moved in the stated direction, and
// the tree must equal the in-memory reference on the current multiset.
func TestMigrationBothDirections(t *testing.T) {
	schema := migSchema()
	base := migTuples(20000, 1)
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 3, MinSplit: 50}
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			bt, err := Build(data.NewMemSource(schema, data.CloneTuples(base)), Config{
				Method: g.Method, MaxDepth: g.MaxDepth, MinSplit: g.MinSplit,
				SampleSize: 2000, Seed: 3, Parallelism: p,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer bt.Close()
			root := bt.root
			if root.isLeaf() || root.coarse.kind != data.Numeric || root.coarse.attr != 0 {
				t.Fatal("the root must split on x with a confidence interval")
			}
			thr, hi := root.routedThr, root.coarse.hi
			// Class-0 tuples piled up halfway between the split point and
			// the interval's upper end pull the split point up to them.
			v := math.Round((thr+hi)/2*100) / 100
			if !(v > thr && v <= hi) {
				t.Fatalf("interval (%v, %v] leaves no room above the split point %v", root.coarse.lo, hi, thr)
			}
			chunk := make([]data.Tuple, 400)
			for i := range chunk {
				chunk[i] = data.Tuple{Values: []float64{v, float64(i) / 400}, Class: 0}
			}
			all := data.CloneTuples(base)
			for _, step := range []struct {
				name string
				w    int64
				up   bool
			}{{"insert raises", +1, true}, {"delete lowers", -1, false}} {
				before := root.routedThr
				src := data.NewMemSource(schema, data.CloneTuples(chunk))
				var upd UpdateStats
				if step.w > 0 {
					upd, err = bt.Insert(src)
					all = append(all, chunk...)
				} else {
					upd, err = bt.Delete(src)
					all = subtract(all, chunk)
				}
				if err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
				if bt.root != root || root.isLeaf() {
					t.Fatalf("%s: the root was rebuilt instead of migrating", step.name)
				}
				if upd.MigratedTuples == 0 {
					t.Errorf("%s: no stuck tuple migrated", step.name)
				}
				if after := root.routedThr; after > before != step.up || after == before {
					t.Errorf("%s: split point moved from %v to %v", step.name, before, after)
				}
				requireEqual(t, step.name, bt.Tree(), inmem.Build(schema, data.CloneTuples(all), g))
				if err := bt.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", step.name, err)
				}
			}
		})
	}
}
