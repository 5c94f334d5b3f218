package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

// TestRandomOperationSequences is the strongest maintenance stress test:
// random schemas, random planted concepts, and random interleavings of
// insert and delete chunks (including deletes of partial chunks and
// re-inserts of previously deleted data). After every operation the
// maintained tree must equal a from-scratch reference build on the
// current multiset, and the internal invariants must hold.
//
// The numbered subtests grow the full tree to a small depth. The stop-N
// subtests run in stop mode with a threshold of about a quarter of the
// base and 5% label noise, half of them under a memory budget and half
// with two workers (crossed), so their fat leaves move into presorted
// families that are merged, compacted, sent back to bags and gathered
// into rebuilds; over all of them, each of those must happen.
func TestRandomOperationSequences(t *testing.T) {
	for seed := int64(0); seed < 16; seed++ {
		seed := seed
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			schema, base := randomDataset(rng)
			method := split.Method(split.NewGini())
			if seed%3 == 1 {
				method = split.NewQuestLike()
			} else if seed%3 == 2 {
				method = split.NewEntropy()
			}
			maxDepth := 3 + rng.Intn(2)
			g := inmem.Config{Method: method, MaxDepth: maxDepth, MinSplit: 10}
			cfg := Config{
				Method: method, MaxDepth: maxDepth, MinSplit: 10,
				SampleSize: len(base)/3 + 10, BootstrapTrees: 8, Seed: seed,
			}
			if rng.Intn(2) == 0 {
				cfg.MemBudgetTuples = int64(len(base) / 4)
				cfg.TempDir = t.TempDir()
			}
			bt, err := Build(data.NewMemSource(schema, base), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer bt.Close()

			current := data.CloneTuples(base)
			var chunks [][]data.Tuple // insert history available for deletion
			chunks = append(chunks, data.CloneTuples(base))

			for op := 0; op < 10; op++ {
				if rng.Intn(3) > 0 || len(chunks) == 0 || len(current) < 50 {
					// Insert a fresh chunk drawn from a (possibly
					// different) random concept over the same schema.
					rng2 := rand.New(rand.NewSource(seed*100 + int64(op)))
					_, chunk := randomDatasetWithSchema(rng2, schema)
					if _, err := bt.Insert(data.NewMemSource(schema, chunk)); err != nil {
						t.Fatalf("op %d insert: %v", op, err)
					}
					current = append(current, data.CloneTuples(chunk)...)
					chunks = append(chunks, chunk)
				} else {
					// Delete a previously inserted chunk (possibly just a
					// prefix of it).
					idx := rng.Intn(len(chunks))
					victim := chunks[idx]
					n := len(victim)
					if rng.Intn(2) == 0 && n > 2 {
						n = 1 + rng.Intn(n-1)
					}
					expired := victim[:n]
					if _, err := bt.Delete(data.NewMemSource(schema, expired)); err != nil {
						t.Fatalf("op %d delete: %v", op, err)
					}
					current = subtract(current, expired)
					if n == len(victim) {
						chunks = append(chunks[:idx], chunks[idx+1:]...)
					} else {
						chunks[idx] = victim[n:]
					}
				}
				ref := inmem.Build(schema, data.CloneTuples(current), g)
				got := bt.Tree()
				if !got.Equal(ref) {
					t.Fatalf("op %d (%s, %d tuples): %s", op, method.Name(), len(current), got.Diff(ref))
				}
				if err := bt.CheckConsistency(); err != nil {
					t.Fatalf("op %d: %v", op, err)
				}
			}
		})
	}

	var seen familyEvents
	const stopSeeds = 8
	ran := 0
	for seed := int64(0); seed < stopSeeds; seed++ {
		seed := seed
		if t.Run(fmt.Sprintf("stop-%d", seed), func(t *testing.T) {
			seen.add(stopModeSequence(t, seed))
		}) {
			ran++
		}
	}
	if ran == stopSeeds && !seen.all() {
		t.Errorf("the stop-mode sequences did not exercise every presorted-family path: %+v", seen)
	}
}

// familyEvents counts what happened to the presorted families of a tree
// over update operations.
type familyEvents struct {
	Created, Merged, Compacted, ToBag, Gathered int
}

func (e *familyEvents) add(o familyEvents) {
	e.Created += o.Created
	e.Merged += o.Merged
	e.Compacted += o.Compacted
	e.ToBag += o.ToBag
	e.Gathered += o.Gathered
}

func (e familyEvents) all() bool {
	return e.Created > 0 && e.Merged > 0 && e.Compacted > 0 && e.ToBag > 0 && e.Gathered > 0
}

// observe tallies what one update did to the presorted families held
// before it (before, with their live rows): a family still there grew by
// a merged insert or shrank by a compacted delete; a leaf that holds a
// bag again, or was promoted (which only a spilled bag is), went back to
// a bag; one no longer in the tree was gathered by a rebuild or demotion.
func (e *familyEvents) observe(root *bnode, before map[*bnode]int) {
	after := presortedLeaves(root, nil)
	nodes := reachable(root, nil)
	for n := range after {
		if _, ok := before[n]; !ok {
			e.Created++
		}
	}
	for n, rows := range before {
		switch {
		case !nodes[n]:
			e.Gathered++
		case !n.isLeaf() || n.family.fam == nil:
			e.ToBag++
		case after[n] > rows && n.subtree != nil:
			e.Merged++
		case after[n] < rows && n.family.fam.Dead() == 0:
			e.Compacted++
		}
	}
}

// stopModeSequence runs one stop-mode random operation sequence and
// returns what happened to its presorted families.
func stopModeSequence(t *testing.T, seed int64) familyEvents {
	rng := rand.New(rand.NewSource(1000 + seed))
	schema := randomSchema(rng)
	draw := plantedConcept(rng, schema, 0.05)
	base := draw(2000 + rng.Intn(2000))
	var method split.Method = split.NewGini()
	if seed%3 == 1 {
		method = split.NewEntropy()
	}
	threshold := int64(len(base) / 4)
	g := inmem.Config{Method: method, StopThreshold: threshold, StopAtThreshold: true}
	cfg := Config{
		Method: method, StopThreshold: threshold, StopAtThreshold: true,
		SampleSize: len(base)/2 + 10, BootstrapTrees: 8, Seed: seed,
		Parallelism: 1 + int(seed/2%2),
	}
	if seed%2 == 0 {
		// Room for the base and about one chunk: families start resident,
		// and later inserts overflow into spilled bags.
		cfg.MemBudgetTuples = int64(len(base) + len(base)/5)
		cfg.TempDir = t.TempDir()
	}
	bt, err := Build(data.NewMemSource(schema, base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()

	var ev familyEvents
	current := data.CloneTuples(base)
	var removed []data.Tuple
	var chunks [][]data.Tuple // inserted chunks, open to deletion
	for op := 0; op < 14; op++ {
		before := presortedLeaves(bt.root, nil)
		switch r := rng.Intn(6); {
		case r < 4 || len(chunks) == 0:
			chunk := draw(200 + rng.Intn(len(base)/4))
			if r == 1 {
				// Drift: a chunk from another concept.
				chunk = plantedConcept(rng, schema, 0.05)(len(chunk))
			}
			if r == 0 && len(removed) > 0 {
				// Re-insert rows deleted earlier.
				chunk = removed[:min(len(removed), len(chunk))]
				removed = removed[len(chunk):]
			}
			if _, err := bt.Insert(data.NewMemSource(schema, chunk)); err != nil {
				t.Fatalf("op %d insert: %v", op, err)
			}
			current = append(current, data.CloneTuples(chunk)...)
			chunks = append(chunks, chunk)
		default:
			// Delete a previously inserted chunk, or part of one.
			idx := rng.Intn(len(chunks))
			victim := chunks[idx]
			n := len(victim)
			if rng.Intn(2) == 0 && n > 2 {
				n = 1 + rng.Intn(n-1)
			}
			expired := victim[:n]
			if _, err := bt.Delete(data.NewMemSource(schema, expired)); err != nil {
				t.Fatalf("op %d delete: %v", op, err)
			}
			current = subtract(current, expired)
			removed = append(removed, expired...)
			if n == len(victim) {
				chunks = append(chunks[:idx], chunks[idx+1:]...)
			} else {
				chunks[idx] = victim[n:]
			}
		}
		ev.observe(bt.root, before)
		ref := inmem.Build(schema, data.CloneTuples(current), g)
		if got := bt.Tree(); !got.Equal(ref) {
			t.Fatalf("op %d (%s, %d tuples): %s", op, method.Name(), len(current), got.Diff(ref))
		}
		if err := bt.CheckConsistency(); err != nil {
			t.Fatalf("op %d: %v", op, err)
		}
	}
	return ev
}

// randomDatasetWithSchema draws a dataset over an existing schema with a
// random planted concept.
func randomDatasetWithSchema(rng *rand.Rand, schema *data.Schema) (*data.Schema, []data.Tuple) {
	n := 200 + rng.Intn(800)
	domain := 5 + rng.Intn(40)
	pivot := float64(rng.Intn(domain))
	numIdx := schema.NumericIndexes()
	catIdx := schema.CategoricalIndexes()
	tuples := make([]data.Tuple, n)
	for i := range tuples {
		vals := make([]float64, schema.NumAttrs())
		for a, at := range schema.Attributes {
			if at.Kind == data.Numeric {
				vals[a] = float64(rng.Intn(domain))
			} else {
				vals[a] = float64(rng.Intn(at.Cardinality))
			}
		}
		class := 0
		if len(numIdx) > 0 && vals[numIdx[0]] > pivot {
			class = 1
		}
		if len(catIdx) > 0 && int(vals[catIdx[0]])%2 == 1 {
			class = (class + 1) % schema.ClassCount
		}
		if rng.Float64() < 0.15 {
			class = rng.Intn(schema.ClassCount)
		}
		tuples[i] = data.Tuple{Values: vals, Class: class}
	}
	return schema, tuples
}

// randomSchema draws a schema of 1-3 numeric and 0-2 categorical
// attributes (at least two in all) and 2-3 classes.
func randomSchema(rng *rand.Rand) *data.Schema {
	numAttrs, catAttrs := 1+rng.Intn(3), rng.Intn(3)
	if numAttrs+catAttrs < 2 {
		catAttrs++
	}
	var attrs []data.Attribute
	for i := 0; i < numAttrs; i++ {
		attrs = append(attrs, data.Attribute{Name: fmt.Sprintf("n%d", i), Kind: data.Numeric})
	}
	for i := 0; i < catAttrs; i++ {
		attrs = append(attrs, data.Attribute{
			Name: fmt.Sprintf("c%d", i), Kind: data.Categorical, Cardinality: 2 + rng.Intn(6),
		})
	}
	return data.MustSchema(attrs, 2+rng.Intn(2))
}

// plantedConcept returns a generator of tuples over schema whose class
// follows a random planted concept — a pivot on the first numeric
// attribute, flipped by the parity of the first categorical one —
// relabeled uniformly at random with probability noise.
func plantedConcept(rng *rand.Rand, schema *data.Schema, noise float64) func(n int) []data.Tuple {
	domain := 20 + rng.Intn(180)
	pivot := float64(rng.Intn(domain))
	numIdx, catIdx := schema.NumericIndexes(), schema.CategoricalIndexes()
	return func(n int) []data.Tuple {
		tuples := make([]data.Tuple, n)
		for i := range tuples {
			vals := make([]float64, schema.NumAttrs())
			for a, at := range schema.Attributes {
				if at.Kind == data.Numeric {
					vals[a] = float64(rng.Intn(domain))
				} else {
					vals[a] = float64(rng.Intn(at.Cardinality))
				}
			}
			class := 0
			if vals[numIdx[0]] > pivot {
				class = 1
			}
			if len(catIdx) > 0 && int(vals[catIdx[0]])%2 == 1 {
				class = (class + 1) % schema.ClassCount
			}
			if rng.Float64() < noise {
				class = rng.Intn(schema.ClassCount)
			}
			tuples[i] = data.Tuple{Values: vals, Class: class}
		}
		return tuples
	}
}
