package inmem

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// familyDraw draws one attribute value of a random family schema.
type familyDraw func(*rand.Rand) float64

// randomFamilySchema draws a schema for the family differential test and
// a value generator per attribute. Numeric attributes stress the key
// mapping and the removal runs: NaNs of many payloads, ±0, ±Inf and
// small integers; only 1-3 distinct values; or mostly distinct fractions.
// With noNumeric the schema is categorical only.
func randomFamilySchema(rng *rand.Rand, noNumeric bool) (*data.Schema, []familyDraw) {
	var attrs []data.Attribute
	var draws []familyDraw
	if !noNumeric {
		for i := 0; i < 1+rng.Intn(4); i++ {
			attrs = append(attrs, data.Attribute{Name: fmt.Sprintf("n%d", i), Kind: data.Numeric})
			switch rng.Intn(3) {
			case 0:
				draws = append(draws, func(r *rand.Rand) float64 {
					switch x := r.Intn(10); {
					case x < 2:
						return randomNaN(r)
					case x == 2:
						return math.Inf(1 - 2*r.Intn(2))
					case x < 5:
						return math.Copysign(0, float64(r.Intn(2)*2-1))
					default:
						return float64(r.Intn(9) - 4)
					}
				})
			case 1:
				vals := []float64{-2.5, 0, 7, math.Copysign(0, -1)}[:1+rng.Intn(3)]
				draws = append(draws, func(r *rand.Rand) float64 { return vals[r.Intn(len(vals))] })
			default:
				draws = append(draws, func(r *rand.Rand) float64 { return math.Round(r.NormFloat64()*200) / 4 })
			}
		}
	}
	cats := rng.Intn(3)
	if noNumeric {
		cats = 1 + rng.Intn(3)
	}
	for i := 0; i < cats; i++ {
		card := 2 + rng.Intn(5)
		attrs = append(attrs, data.Attribute{Name: fmt.Sprintf("c%d", i), Kind: data.Categorical, Cardinality: card})
		draws = append(draws, func(r *rand.Rand) float64 { return float64(r.Intn(card)) })
	}
	// Shuffle so categorical attributes do not always come last.
	rng.Shuffle(len(attrs), func(i, j int) {
		attrs[i], attrs[j] = attrs[j], attrs[i]
		draws[i], draws[j] = draws[j], draws[i]
	})
	return data.MustSchema(attrs, 2+rng.Intn(2)), draws
}

// variant returns a copy of t that is data.Tuple.Equal to it but may
// differ in bits: zeros flip sign and NaNs change payload.
func variant(rng *rand.Rand, t data.Tuple) data.Tuple {
	v := t.Clone()
	for a, x := range v.Values {
		switch {
		case x == 0 && rng.Intn(2) == 0:
			v.Values[a] = -x
		case x != x && rng.Intn(2) == 0:
			v.Values[a] = randomNaN(rng)
		}
	}
	return v
}

func chunkOf(schema *data.Schema, tuples []data.Tuple) *data.Chunk {
	ch := data.NewChunk(len(schema.Attributes), max(len(tuples), 1))
	for _, t := range tuples {
		ch.AppendTuple(t)
	}
	return ch
}

// familyRows returns the family's live rows in row order.
func familyRows(t *testing.T, f *Family) []data.Tuple {
	t.Helper()
	var out []data.Tuple
	err := f.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
		if idx != nil {
			t.Fatal("family chunk came with an index set")
		}
		for r := 0; r < ch.Len(); r++ {
			out = append(out, ch.TupleCopy(r))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// sameBits reports whether two tuple lists are identical bit for bit.
func sameBits(a, b []data.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Key() != b[i].Key() {
			return false
		}
	}
	return true
}

// TestFamilyMatchesBuild is the Family's differential test: random
// schemas (one in five without a numeric attribute) take random batches
// of adds — fresh rows, duplicates of live rows and re-inserts of removed
// ones — and removes, some by a variant that differs in the bits of a
// zero or a NaN. The family's live rows must stay, bit for bit and in
// order, the reference list that removes the first equal row; its layout
// must check; and after every batch Build must equal Build on the
// multiset under every split selection method.
func TestFamilyMatchesBuild(t *testing.T) {
	methods := []split.Method{split.NewGini(), split.NewEntropy(), split.NewQuestLike()}
	for seed := int64(0); seed < 30; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema, draws := randomFamilySchema(rng, seed%5 == 4)
			fresh := func() data.Tuple {
				vals := make([]float64, len(draws))
				for a, d := range draws {
					vals[a] = d(rng)
				}
				class := rng.Intn(schema.ClassCount)
				if vals[0] == vals[0] && vals[0] > 0 && rng.Intn(4) > 0 {
					class = 0
				}
				return data.Tuple{Values: vals, Class: class}
			}
			f := NewFamily(schema, 0)
			var live, gone []data.Tuple
			for step := 0; step < 14; step++ {
				for ops := 1 + rng.Intn(3); ops > 0; ops-- {
					if rng.Intn(3) > 0 || len(live) < 20 {
						batch := make([]data.Tuple, 1+rng.Intn(300))
						for i := range batch {
							switch x := rng.Intn(10); {
							case x == 0 && len(live) > 0:
								batch[i] = live[rng.Intn(len(live))].Clone()
							case x == 1 && len(gone) > 0:
								batch[i] = gone[rng.Intn(len(gone))].Clone()
							default:
								batch[i] = fresh()
							}
						}
						ch := chunkOf(schema, batch)
						if rng.Intn(2) == 0 {
							f.Add(ch, nil)
						} else {
							// Add through an index set that skips some rows
							// (never nil, which would name every row).
							idx := []int32{}
							var kept []data.Tuple
							for r := range batch {
								if rng.Intn(4) > 0 {
									idx = append(idx, int32(r))
									kept = append(kept, batch[r])
								}
							}
							f.Add(ch, idx)
							batch = kept
						}
						live = append(live, batch...)
						continue
					}
					var batch []data.Tuple
					for k := 1 + rng.Intn(len(live)/2); k > 0; k-- {
						i := rng.Intn(len(live))
						rm := variant(rng, live[i])
						batch = append(batch, rm)
						j := 0
						for !live[j].Equal(rm) {
							j++
						}
						gone = append(gone, live[j])
						live = append(live[:j], live[j+1:]...)
					}
					if err := f.Remove(chunkOf(schema, batch), nil); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if err := f.Check(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if got := familyRows(t, f); !sameBits(got, live) {
					t.Fatalf("step %d: family holds %d rows, reference %d, or they differ in order or bits", step, len(got), len(live))
				}
				for _, m := range methods {
					// A depth limit: QuestLike truncates values to integers, so
					// only the limit ends its growth on some families.
					cfg := Config{Method: m, MinSplit: int64(2 + rng.Intn(6)), MaxDepth: 1 + rng.Intn(8)}
					if rng.Intn(3) == 0 {
						cfg.StopThreshold = int64(len(live) / (2 + rng.Intn(4)))
						cfg.StopAtThreshold = true
					}
					got := f.Build(cfg, nil)
					if err := f.Check(); err != nil {
						t.Fatalf("step %d after build: %v", step, err)
					}
					want := Build(schema, data.CloneTuples(live), cfg)
					if !got.Equal(want) {
						t.Fatalf("step %d, %s %+v: %s", step, m.Name(), cfg, got.Diff(want))
					}
				}
				if f.Dead() != 0 || f.Len() != len(live) {
					t.Fatalf("step %d: built family holds %d live, %d dead rows; want %d, 0", step, f.Len(), f.Dead(), len(live))
				}
			}
		})
	}
}

// TestFamilyRemoveUnmatched: a removal that matches no live row fails
// with the dangling-removal error — whether the tuple never was in the
// family, every copy of it is already removed, or the schema has no
// numeric attribute — and removals match exactly one live row each.
func TestFamilyRemoveUnmatched(t *testing.T) {
	num := data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "c", Kind: data.Categorical, Cardinality: 3},
	}, 2)
	cat := data.MustSchema([]data.Attribute{{Name: "c", Kind: data.Categorical, Cardinality: 3}}, 2)
	for _, schema := range []*data.Schema{num, cat} {
		row := func(x float64, class int) data.Tuple {
			if len(schema.Attributes) == 1 {
				return data.Tuple{Values: []float64{x}, Class: class}
			}
			return data.Tuple{Values: []float64{x, 1}, Class: class}
		}
		f := NewFamily(schema, 0)
		f.Add(chunkOf(schema, []data.Tuple{row(1, 0), row(2, 1), row(1, 0)}), nil)
		f.Build(Config{Method: split.NewGini()}, nil)
		if err := f.Remove(chunkOf(schema, []data.Tuple{row(1, 0), row(1, 0)}), nil); err != nil {
			t.Fatal(err)
		}
		for _, rm := range [][]data.Tuple{{row(1, 0)}, {row(2, 0)}, {row(2, 1), row(2, 1)}} {
			err := f.Remove(chunkOf(schema, rm), nil)
			if err == nil || !strings.Contains(err.Error(), "did not match") {
				t.Errorf("%d attribute(s): removing %v returned %v, want the dangling-removal error",
					len(schema.Attributes), rm, err)
			}
		}
	}
}

// TestFamilyRemovesFirstEqualRow: -0 matches +0 and any NaN matches any
// NaN, and the row removed is the first live equal one in row order, in
// the unsorted tail as well as among the sorted rows.
func TestFamilyRemovesFirstEqualRow(t *testing.T) {
	schema := data.MustSchema([]data.Attribute{{Name: "x", Kind: data.Numeric}, {Name: "y", Kind: data.Numeric}}, 2)
	negZero := math.Copysign(0, -1)
	nan1, nan2 := math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0xFFF8_0000_0000_0002)
	rows := []data.Tuple{
		{Values: []float64{0, nan1}, Class: 1},
		{Values: []float64{negZero, nan2}, Class: 1},
		{Values: []float64{0, nan2}, Class: 1},
	}
	for _, built := range []bool{false, true} {
		f := NewFamily(schema, 0)
		f.Add(chunkOf(schema, rows), nil)
		if built {
			f.Build(Config{Method: split.NewGini()}, nil)
		}
		rm := data.Tuple{Values: []float64{negZero, math.NaN()}, Class: 1}
		if err := f.Remove(chunkOf(schema, []data.Tuple{rm}), nil); err != nil {
			t.Fatal(err)
		}
		if got := familyRows(t, f); !sameBits(got, rows[1:]) {
			t.Errorf("built=%v: removal left %v, want %v", built, got, rows[1:])
		}
		if err := f.Remove(chunkOf(schema, []data.Tuple{rm, rm}), nil); err != nil {
			t.Fatal(err)
		}
		if f.Len() != 0 {
			t.Errorf("built=%v: %d rows left", built, f.Len())
		}
	}
}

var benchFamilyTree any

// BenchmarkRefit times a warm refit of a maintained family after a 10%
// insert and a 10% delete: the family path adds and removes the rows and
// rebuilds from its presorted permutations; the inmem path is Build on
// the same multiset, from tuples already in memory. Both grow under a
// 15,000-tuple stop threshold, as BenchmarkBuildAttrList does. The pair
// cases refit two F1 families of 88,000 and 44,000 rows, the shape of a
// stream window's two fat leaves, concurrently: on two goroutines that
// share nothing (separate), and as the two jobs of one pool of 2 workers
// (pooled), whose fits share their tasks.
func BenchmarkRefit(b *testing.B) {
	cfg := Config{Method: split.NewGini(), StopThreshold: 15_000, StopAtThreshold: true}
	for _, n := range []int{40_000, 100_000} {
		step := n / 10
		src := gen.MustSource(gen.Config{Function: 6, Noise: 0.1}, int64(n+step), 5)
		tuples, err := data.ReadAll(src)
		if err != nil {
			b.Fatal(err)
		}
		schema := src.Schema()
		w := newWindow(schema, tuples, n)
		w.family.Build(cfg, nil)
		b.Run(fmt.Sprintf("family/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w.slide(b)
				benchFamilyTree = w.family.Build(cfg, nil)
			}
		})
		b.Run(fmt.Sprintf("inmem/n=%d", n), func(b *testing.B) {
			multiset := append(data.CloneTuples(tuples[:n-step]), tuples[n:]...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchFamilyTree = Build(schema, multiset, cfg)
			}
		})
	}
	var pair []*window
	for i, n := range []int{88_000, 44_000} {
		src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, int64(n+n/10), int64(11+i))
		tuples, err := data.ReadAll(src)
		if err != nil {
			b.Fatal(err)
		}
		w := newWindow(src.Schema(), tuples, n)
		w.family.Build(cfg, nil)
		pair = append(pair, w)
	}
	trees := make([]*tree.Tree, len(pair))
	b.Run("pair/separate", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			for j, w := range pair {
				w.slide(b)
				wg.Add(1)
				go func() {
					defer wg.Done()
					trees[j] = w.family.Build(cfg, nil)
				}()
			}
			wg.Wait()
		}
		benchFamilyTree = trees
	})
	b.Run("pair/pooled", func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, w := range pair {
				w.slide(b)
			}
			err := run(NewPool(2), len(pair), func(wk *Worker, j int) error {
				trees[j] = pair[j].family.Build(cfg, wk)
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		benchFamilyTree = trees
	})
}

// window is a family holding n rows of a tuple list with a tenth more:
// each slide deletes one tenth-sized slice of the rows and inserts the
// other, so the family alternates between two multisets.
type window struct {
	family  *Family
	in, out *data.Chunk
}

func newWindow(schema *data.Schema, tuples []data.Tuple, n int) *window {
	step := n / 10
	f := NewFamily(schema, n)
	f.Add(chunkOf(schema, tuples[:n]), nil)
	return &window{family: f, in: chunkOf(schema, tuples[n:n+step]), out: chunkOf(schema, tuples[n-step:n])}
}

func (w *window) slide(b *testing.B) {
	if err := w.family.Remove(w.out, nil); err != nil {
		b.Fatal(err)
	}
	w.family.Add(w.in, nil)
	w.in, w.out = w.out, w.in
}
