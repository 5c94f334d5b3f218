package inmem

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/hull"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// exhaustive hides the Criterion method of the split selection method it
// embeds, so the builder runs its exhaustive search for it: every numeric
// AVC-set filled, then Method.BestSplit.
type exhaustive struct{ split.Method }

// sameSplits reports the first node, in preorder, where two trees differ
// in shape or in a split's Attr, Kind, Subset, or Threshold and Quality
// bits: tree.Equal ignores Quality and treats -0 and +0 as equal.
func sameSplits(got, want *tree.Node, path string) error {
	if got.IsLeaf() != want.IsLeaf() {
		return fmt.Errorf("%s: leaf %v, want leaf %v", path, got.IsLeaf(), want.IsLeaf())
	}
	if got.IsLeaf() {
		return nil
	}
	g, w := got.Crit, want.Crit
	if g.Attr != w.Attr || g.Kind != w.Kind || g.Subset != w.Subset ||
		math.Float64bits(g.Threshold) != math.Float64bits(w.Threshold) ||
		math.Float64bits(g.Quality) != math.Float64bits(w.Quality) {
		return fmt.Errorf("%s: split %+v, want %+v", path, g, w)
	}
	if err := sameSplits(got.Left, want.Left, path+"L"); err != nil {
		return err
	}
	return sameSplits(got.Right, want.Right, path+"R")
}

// prunedBuild grows the family's tree as Build does and returns it with
// the counters of its pruned search.
func prunedBuild(schema *data.Schema, tuples []data.Tuple, cfg Config) (*tree.Tree, searchCounts) {
	f := NewFamily(schema, len(tuples))
	f.Add(chunkOf(schema, tuples), nil)
	b := f.builder(cfg, nil)
	return b.grow(nil), b.searchCounts()
}

// searchCounts sums the search counters over every worker's scratch.
func (b *listBuilder) searchCounts() searchCounts {
	var c searchCounts
	for _, sc := range b.sets {
		if sc != nil {
			c.listed += sc.counts.listed
			c.aggregated += sc.counts.aggregated
			c.corners += sc.counts.corners
			c.pruned += sc.counts.pruned
		}
	}
	return c
}

// checkPruned builds the family with the pruned search and with the
// exhaustive one, fails t unless the trees agree bit for bit, and returns
// the pruned search's counters.
func checkPruned(t *testing.T, schema *data.Schema, tuples []data.Tuple, cfg Config) searchCounts {
	t.Helper()
	got, s := prunedBuild(schema, tuples, cfg)
	ref := cfg
	ref.Method = exhaustive{cfg.Method}
	want := Build(schema, tuples, ref)
	if err := sameSplits(got.Root, want.Root, "root"); err != nil {
		t.Fatalf("%s %+v: %v", cfg.Method.Name(), cfg, err)
	}
	if got.Root.IsLeaf() {
		t.Fatalf("%s %+v: the family did not split", cfg.Method.Name(), cfg)
	}
	return s
}

// TestPrunedSearchMatchesExhaustive pins the pruned split search to the
// exhaustive one at every node, bit for bit: on the generator's F1, F6
// and F7 under gini and entropy, both at a stream window's shape (130k
// rows, 15k stop threshold) and grown to full depth (60k rows); on
// adversarial families (NaN payloads, ±0 runs, ±Inf, long ties) of up
// to 50,000 rows; at 4, 8 and hull.MaxClasses classes, where the bound
// prunes the buckets in which few classes change; and above
// hull.MaxClasses classes, where the bound is -Inf and every bucket is
// scanned. The subtests run in parallel: each builds inline, without a
// pool, from tuples no build writes.
func TestPrunedSearchMatchesExhaustive(t *testing.T) {
	methods := []split.Method{split.NewGini(), split.NewEntropy()}
	for _, fn := range []int{1, 6, 7} {
		for _, shape := range []struct {
			n    int64
			stop int64
		}{{130_000, 15_000}, {60_000, 0}} {
			src := gen.MustSource(gen.Config{Function: fn, Noise: 0.05}, shape.n, int64(fn))
			tuples, err := data.ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				t.Run(fmt.Sprintf("F%d/n=%d/%s", fn, shape.n, m.Name()), func(t *testing.T) {
					t.Parallel()
					cfg := Config{Method: m, StopThreshold: shape.stop, StopAtThreshold: shape.stop > 0}
					checkPruned(t, src.Schema(), tuples, cfg)
				})
			}
		}
	}
	t.Run("adversarial", func(t *testing.T) {
		t.Parallel()
		rng := rand.New(rand.NewSource(21))
		for i := 0; i < 40; i++ {
			schema, tuples := adversarialFamily(rng, 200+rng.Intn(50_000-200))
			cfg := Config{Method: methods[i%2], MinSplit: int64(2 + rng.Intn(10))}
			if rng.Intn(2) == 0 {
				cfg.MaxDepth = 2 + rng.Intn(12)
			}
			checkPruned(t, schema, tuples, cfg)
		}
	})
	for _, k := range []int{4, 8, hull.MaxClasses, hull.MaxClasses + 4} {
		t.Run(fmt.Sprintf("classes=%d", k), func(t *testing.T) {
			t.Parallel()
			// One label in 500 is noise, so the buckets of the banded
			// attribute hold few classes and are bounded up to
			// hull.MaxClasses classes; those of the noise attribute hold
			// every class, so from 8 classes on most of them cost more to
			// bound than to scan.
			schema, tuples := manyClassFamily(rand.New(rand.NewSource(int64(k))), 130_000, k, 500)
			for _, m := range methods {
				s := checkPruned(t, schema, tuples, Config{Method: m, MaxDepth: 8})
				t.Logf("%s: %d corners evaluated, %d buckets pruned, %d of %d list entries aggregated",
					m.Name(), s.corners, s.pruned, s.aggregated, s.listed)
				if bounds := k <= hull.MaxClasses; (s.pruned > 0) != bounds {
					t.Errorf("%s: the bound pruned %d buckets at %d classes", m.Name(), s.pruned, k)
				}
				// A bucket is bounded only when its corners of k classes
				// cost at most its entry count.
				if s.corners*int64(k) > s.listed {
					t.Errorf("%s: the bound evaluated %d corners of %d classes over %d list entries",
						m.Name(), s.corners, k, s.listed)
				}
			}
		})
	}
}

// manyClassFamily draws n tuples over k classes whose label follows one
// numeric attribute of 1,001 values in bands, with one label in noise
// drawn at random, beside a continuous noise attribute and a categorical
// one.
func manyClassFamily(rng *rand.Rand, n, k, noise int) (*data.Schema, []data.Tuple) {
	schema := data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "noise", Kind: data.Numeric},
		{Name: "cat", Kind: data.Categorical, Cardinality: 4},
	}, k)
	tuples := make([]data.Tuple, n)
	for i := range tuples {
		x := math.Round(rng.Float64()*1000) / 10
		class := int(x) * k / 100
		if rng.Intn(noise) == 0 {
			class = rng.Intn(k)
		}
		tuples[i] = data.Tuple{Values: []float64{x, rng.Float64(), float64(rng.Intn(4))}, Class: min(class, k-1)}
	}
	return schema, tuples
}

// TestPrunedSearchSkips: on a stream window's shape (F1 with 5% noise,
// 130k rows, 15k stop threshold) the pruned search aggregates at most a
// quarter of the numeric list entries the exhaustive search would, so a
// change that silently stops pruning fails here.
func TestPrunedSearchSkips(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 130_000, 1)
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	_, s := prunedBuild(src.Schema(), tuples, Config{Method: split.NewGini(), StopThreshold: 15_000, StopAtThreshold: true})
	if s.listed == 0 {
		t.Fatal("the pruned search never ran")
	}
	share := float64(s.aggregated) / float64(s.listed)
	t.Logf("aggregated %d of %d numeric list entries (%.1f%%)", s.aggregated, s.listed, 100*share)
	if share > 0.25 {
		t.Errorf("the pruned search aggregated %.1f%% of the numeric list entries, want at most 25%%", 100*share)
	}
}

// TestSearchMarginCoversBound: at the search's margin, Lemma 3.1's corner
// bound holds in floating point. For gini and entropy and class totals up
// to 10^6, every integer point of a small rectangle inside the totals has
// QualityFromLeft at least LowerBound - searchMargin: at 2 and 3 classes
// on rectangles of side up to 5; at hull.MaxClasses classes on rectangles
// of side 2 to 5 in two classes, of unit side in four and flat in the
// rest, so every class count enters the impurity and the rectangle has
// points that are not corners.
func TestSearchMarginCoversBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, crit := range []split.Criterion{split.Gini, split.Entropy} {
		for _, k := range []int{2, 3, hull.MaxClasses} {
			for trial := 0; trial < 400; trial++ {
				sides := make([]int64, k)
				if k <= 3 {
					for i := range sides {
						sides[i] = int64(rng.Intn(6))
					}
				} else {
					perm := rng.Perm(k)
					for j, i := range perm[:6] {
						sides[i] = 1
						if j < 2 {
							sides[i] = int64(2 + rng.Intn(4))
						}
					}
				}
				totals, lo, hi := make([]int64, k), make([]int64, k), make([]int64, k)
				scale := []int64{10, 1_000, 1_000_000}[trial%3]
				for i := range totals {
					totals[i] = 1 + rng.Int63n(scale)
					side := min(totals[i], sides[i])
					lo[i] = rng.Int63n(totals[i] - side + 1)
					hi[i] = lo[i] + side
				}
				lb := hull.LowerBound(crit, lo, hi, totals)
				p := make([]int64, k)
				copy(p, lo)
				scratch := make([]int64, k)
				for {
					if q := crit.QualityFromLeft(p, totals, scratch); q < lb-searchMargin {
						t.Fatalf("%v: point %v has quality %v below the bound %v of [%v, %v] minus the margin (totals %v)",
							crit, p, q, lb, lo, hi, totals)
					}
					i := 0
					for ; i < k && p[i] == hi[i]; i++ {
						p[i] = lo[i]
					}
					if i == k {
						break
					}
					p[i]++
				}
			}
		}
	}
}
