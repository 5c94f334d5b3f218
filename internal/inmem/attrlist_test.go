package inmem

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// TestAttributeListMatchesNaive cross-checks the SPRINT-style builder
// against the per-node re-sorting oracle over randomized datasets,
// methods and stopping rules: the numbered trials on the synthetic
// generator's functions, the adversarial ones on the edge cases of the
// canonical value order under every method, and one large family.
func TestAttributeListMatchesNaive(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fn := 1 + rng.Intn(10)
			noise := float64(rng.Intn(20)) / 100
			n := int64(300 + rng.Intn(3000))
			src := gen.MustSource(gen.Config{Function: fn, Noise: noise, ExtraAttrs: rng.Intn(3)}, n, seed)
			tuples, err := data.ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			var m split.Method = split.NewGini()
			switch rng.Intn(3) {
			case 1:
				m = split.NewEntropy()
			case 2:
				m = split.NewQuestLike()
			}
			cfg := Config{
				Method:   m,
				MaxDepth: 1 + rng.Intn(7),
				MinSplit: int64(2 + rng.Intn(30)),
			}
			if rng.Intn(2) == 0 {
				cfg.StopThreshold = n / int64(2+rng.Intn(6))
				cfg.StopAtThreshold = rng.Intn(2) == 0
			}
			checkMatchesNaive(t, src.Schema(), tuples, cfg)
		})
	}
	methods := []split.Method{split.NewGini(), split.NewEntropy(), split.NewQuestLike()}
	t.Run("adversarial", func(t *testing.T) {
		for seed := int64(0); seed < 8; seed++ {
			for _, m := range methods {
				seed, m := seed, m
				t.Run(fmt.Sprintf("%d/%s", seed, m.Name()), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed))
					schema, tuples := adversarialFamily(rng, 200+rng.Intn(3000))
					// QuestLike truncates values to integers, so its
					// splits need not separate this family: only the
					// depth limit ends its growth.
					cfg := Config{Method: m, MaxDepth: 2 + rng.Intn(12), MinSplit: int64(2 + rng.Intn(10))}
					checkMatchesNaive(t, schema, tuples, cfg)
				})
			}
		}
	})
	t.Run("large", func(t *testing.T) {
		schema, tuples := adversarialFamily(rand.New(rand.NewSource(99)), 50_000)
		for _, m := range methods {
			checkMatchesNaive(t, schema, tuples, Config{Method: m, MaxDepth: 12, MinSplit: 20})
		}
	})
}

func checkMatchesNaive(t *testing.T, schema *data.Schema, tuples []data.Tuple, cfg Config) {
	t.Helper()
	fast := Build(schema, data.CloneTuples(tuples), cfg)
	naive := BuildNaive(schema, data.CloneTuples(tuples), cfg)
	if !fast.Equal(naive) {
		t.Fatalf("m=%s cfg=%+v: %s", cfg.Method.Name(), cfg, fast.Diff(naive))
	}
	if fast.Root.IsLeaf() {
		t.Fatalf("m=%s cfg=%+v: the family did not split", cfg.Method.Name(), cfg)
	}
}

// adversarialFamily draws n tuples whose numeric attributes each stress
// one edge of the canonical value order, with a 3-class label that
// depends on every attribute and 10% label noise.
func adversarialFamily(rng *rand.Rand, n int) (*data.Schema, []data.Tuple) {
	schema := data.MustSchema([]data.Attribute{
		{Name: "nan", Kind: data.Numeric},   // small integers, ±Inf and NaNs of many payloads
		{Name: "zero", Kind: data.Numeric},  // -0 and +0 mixed, beside a few other values
		{Name: "frac", Kind: data.Numeric},  // negative and fractional, mostly distinct
		{Name: "small", Kind: data.Numeric}, // four values: long runs of ties
		{Name: "cat", Kind: data.Categorical, Cardinality: 5},
	}, 3)
	tuples := make([]data.Tuple, n)
	for i := range tuples {
		var nan float64
		switch r := rng.Intn(10); {
		case r < 2:
			nan = randomNaN(rng)
		case r == 2:
			nan = math.Inf(1 - 2*rng.Intn(2))
		default:
			nan = float64(rng.Intn(12) - 4)
		}
		zero := []float64{math.Copysign(0, -1), 0, -1.5, 2.25}[rng.Intn(4)]
		frac := math.Round(rng.NormFloat64()*400) / 8
		small := float64(rng.Intn(4))
		cat := rng.Intn(5)
		class := 2
		switch {
		case frac < -20:
			class = 0
		case small >= 2 && (nan != nan || nan > 3):
			class = 1
		case zero == 0 && cat%2 == 1:
			class = 0
		case zero > 0:
			class = 1
		}
		if rng.Intn(10) == 0 {
			class = rng.Intn(3)
		}
		tuples[i] = data.Tuple{Values: []float64{nan, zero, frac, small, float64(cat)}, Class: class}
	}
	return schema, tuples
}

// randomNaN returns a quiet or signalling NaN of either sign with a random
// payload.
func randomNaN(rng *rand.Rand) float64 {
	return math.Float64frombits(0x7FF0_0000_0000_0001 | rng.Uint64()&0x800F_FFFF_FFFF_FFFF)
}

// comparatorOrder is the row permutation of the root lists as the
// builder once produced it with a comparison sort, kept as the oracle of
// the radix sort: ascending, NaN last as one run, ties by row id.
func comparatorOrder(vals []float64) []int32 {
	idx := make([]int32, len(vals))
	for i := range idx {
		idx[i] = int32(i)
	}
	slices.SortFunc(idx, func(x, y int32) int {
		a, b := vals[x], vals[y]
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		case a == b || a != a && b != b:
			return int(x - y) // same entry: stabilize
		case a == a:
			return -1 // b is NaN: a sorts first
		default:
			return 1 // a is NaN: b sorts first
		}
	})
	return idx
}

// radixOrder sorts vals as Build sorts a root list and returns the row
// permutation, failing t if an entry comes out with another value's bits.
func radixOrder(t *testing.T, vals []float64) []int32 {
	t.Helper()
	es := make([]entry, len(vals))
	for i, v := range vals {
		es[i] = entry{v: v, row: int32(i)}
	}
	sortEntries(es, make([]entry, len(es)))
	rows := make([]int32, len(es))
	for i, e := range es {
		if math.Float64bits(e.v) != math.Float64bits(vals[e.row]) {
			t.Fatalf("row %d came out with value %v, went in with %v", e.row, e.v, vals[e.row])
		}
		rows[i] = e.row
	}
	return rows
}

// TestRootListOrder pins the radix sort of the root lists to the
// comparison sort it replaced, on the values that stress the key mapping:
// NaN payloads of both signs, ±0, ±Inf, subnormals, ±MaxFloat64 and
// random bit patterns, constant columns, and the sizes at which the sort
// degenerates.
func TestRootListOrder(t *testing.T) {
	special := []float64{
		math.NaN(), randomNaN(rand.New(rand.NewSource(1))), math.Float64frombits(0xFFF8_0000_0000_0000),
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000F_FFFF_FFFF_FFFF), -math.Float64frombits(0x000F_FFFF_FFFF_FFFF),
		1, -1, 0.5, -0.5, 1e300, -1e-300,
	}
	draws := []struct {
		name string
		draw func(*rand.Rand) float64
	}{
		{"special", func(r *rand.Rand) float64 { return special[r.Intn(len(special))] }},
		{"bits", func(r *rand.Rand) float64 { return math.Float64frombits(r.Uint64()) }},
		{"mixed", func(r *rand.Rand) float64 {
			if r.Intn(2) == 0 {
				return special[r.Intn(len(special))]
			}
			return math.Float64frombits(r.Uint64())
		}},
		{"nan", func(r *rand.Rand) float64 { return randomNaN(r) }},
		{"signed-zero", func(r *rand.Rand) float64 { return math.Copysign(0, float64(r.Intn(2)*2-1)) }},
		{"constant", func(*rand.Rand) float64 { return -3.75 }},
		{"integers", func(r *rand.Rand) float64 { return float64(r.Intn(200) - 100) }},
		{"fractions", func(r *rand.Rand) float64 { return r.NormFloat64() * 1e3 }},
	}
	rng := rand.New(rand.NewSource(7))
	for _, d := range draws {
		sizes := []int{0, 1, 2, 257}
		for trial := 0; trial < 100; trial++ {
			sizes = append(sizes, 1+rng.Intn(1500))
		}
		for _, n := range sizes {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = d.draw(rng)
			}
			want, got := comparatorOrder(vals), radixOrder(t, vals)
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: radix order %v, comparator order %v", d.name, n, got, want)
			}
		}
	}
}

func TestAttributeListDoesNotReorderInput(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 500, 3)
	tuples, _ := data.ReadAll(src)
	snapshot := data.CloneTuples(tuples)
	Build(src.Schema(), tuples, Config{Method: split.NewGini(), MaxDepth: 5})
	for i := range tuples {
		if !tuples[i].Equal(snapshot[i]) {
			t.Fatal("attribute-list builder reordered the input slice")
		}
	}
}

func TestAttributeListEmptyAndTiny(t *testing.T) {
	schema := gen.Schema(0)
	for _, n := range []int{0, 1, 2} {
		var tuples []data.Tuple
		src := gen.MustSource(gen.Config{Function: 1}, int64(n), 1)
		tuples, _ = data.ReadAll(src)
		tr := Build(schema, tuples, Config{Method: split.NewGini()})
		if tr.Root == nil {
			t.Fatalf("n=%d: nil root", n)
		}
	}
}

var benchTree *tree.Tree

// BenchmarkBuildAttrList times one Build at the family sizes the
// maintained model builds: bootstrap subsamples of 500 and 1,250 tuples
// (stop thresholds scaled as for bootstrap trees), a 40,000-tuple fat
// leaf refit and a 100,000-tuple family, both under a 15,000-tuple stop
// threshold. The classes=k cases grow a 40,000-tuple family of k classes
// (manyClassFamily, one label in ten drawn at random) to a 1,250-tuple
// stop threshold: most of their buckets hold every class, so the pruned
// split search must scan them rather than pay for 2^k bound corners.
func BenchmarkBuildAttrList(b *testing.B) {
	for _, bc := range []struct{ n, stop int64 }{
		{500, 75},
		{1_250, 187},
		{40_000, 15_000},
		{100_000, 15_000},
	} {
		b.Run(fmt.Sprintf("n=%d", bc.n), func(b *testing.B) {
			src := gen.MustSource(gen.Config{Function: 6, Noise: 0.1}, bc.n, 5)
			tuples, err := data.ReadAll(src)
			if err != nil {
				b.Fatal(err)
			}
			cfg := Config{Method: split.NewGini(), StopThreshold: bc.stop, StopAtThreshold: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTree = Build(src.Schema(), tuples, cfg)
			}
		})
	}
	for _, k := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("classes=%d", k), func(b *testing.B) {
			schema, tuples := manyClassFamily(rand.New(rand.NewSource(int64(k))), 40_000, k, 10)
			cfg := Config{Method: split.NewGini(), StopThreshold: 1_250, StopAtThreshold: true}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTree = Build(schema, tuples, cfg)
			}
		})
	}
}
