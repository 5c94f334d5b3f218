package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

// seedModelPath is a model saved by an earlier build of this package,
// before resident frontier families were grown in memory: a stop-mode F1
// build (seedModelConfig over seedModelData's base), then one Insert and
// one Delete. It holds pushed stuck sets and fat leaves, so loading it
// exercises every part of the format.
const seedModelPath = "testdata/stop-f1.model"

func seedModelConfig() Config {
	return Config{
		Method: split.NewGini(), StopThreshold: 160, StopAtThreshold: true,
		SampleSize: 400, Seed: 22, Parallelism: 1,
	}
}

// seedModelData regenerates the tuples behind the seed model: the
// build's base, the inserted chunk, and the deleted prefix of the base.
func seedModelData(t testing.TB) (base, inserted, deleted []data.Tuple) {
	t.Helper()
	f1 := gen.Config{Function: 1, Noise: 0.05}
	base, err := data.ReadAll(gen.MustSource(f1, 800, 22))
	if err != nil {
		t.Fatal(err)
	}
	inserted, err = data.ReadAll(gen.MustSource(f1, 160, 1022))
	if err != nil {
		t.Fatal(err)
	}
	return base, inserted, base[:80]
}

func readSeedModel(t testing.TB) []byte {
	t.Helper()
	raw, err := os.ReadFile(seedModelPath)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestLoadSeedModel: a model saved before this release loads, equals the
// reference tree of the multiset it was maintained over, saves back to
// the same bytes, and keeps maintaining exactly.
func TestLoadSeedModel(t *testing.T) {
	raw := readSeedModel(t)
	base, inserted, deleted := seedModelData(t)
	schema := gen.Schema(0)
	cfg := seedModelConfig()
	cfg.TempDir = t.TempDir()
	bt, err := Load(bytes.NewReader(raw), schema, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	g := cfg.growConfig(0)
	live := append(append([]data.Tuple{}, base[len(deleted):]...), inserted...)
	requireEqual(t, "loaded", bt.Tree(), inmem.Build(schema, live, g))
	var buf bytes.Buffer
	if err := bt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("re-saved model differs from the seed (%d vs %d bytes)", buf.Len(), len(raw))
	}
	more, err := data.ReadAll(gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 200, 2022))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Insert(data.NewMemSource(schema, more)); err != nil {
		t.Fatal(err)
	}
	requireEqual(t, "insert after load", bt.Tree(), inmem.Build(schema, append(live, more...), g))
}

// mutateSeedModel loads the seed model, applies mutate to its state, and
// returns the bytes Save writes for the result.
func mutateSeedModel(t *testing.T, mutate func(bt *Tree)) []byte {
	t.Helper()
	bt, err := Load(bytes.NewReader(readSeedModel(t)), gen.Schema(0), seedModelConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	mutate(bt)
	var buf bytes.Buffer
	if err := bt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// requireCorruptModel loads raw and requires a typed failure that leaves
// no budget held and no spill file behind. Were the model accepted, the
// Insert that follows would crash on it.
func requireCorruptModel(t *testing.T, raw []byte, cause error) {
	t.Helper()
	dir := t.TempDir()
	budget := data.NewMemBudget(300) // part of the model spills
	cfg := seedModelConfig()
	cfg.Budget, cfg.TempDir = budget, dir
	bt, err := Load(bytes.NewReader(raw), gen.Schema(0), cfg)
	if err == nil {
		defer bt.Close()
		chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 200, 5)
		_, err = bt.Insert(chunk)
		t.Fatalf("corrupt model loaded; the next Insert returned %v", err)
	}
	if !errors.Is(err, ErrCorruptModel) || (cause != nil && !errors.Is(err, cause)) {
		t.Fatalf("Load error %v does not wrap ErrCorruptModel and %v", err, cause)
	}
	if used := budget.Used(); used != 0 {
		t.Fatalf("failed Load holds %d budget tuples", used)
	}
	requireNoTempsUnder(t, dir)
}

// fatLeaf returns the first leaf, left to right, that holds a refit
// subtree over more than the stop threshold.
func fatLeaf(n *bnode, threshold int64) *bnode {
	if n == nil {
		return nil
	}
	if n.isLeaf() {
		if n.subtree != nil && n.total() > threshold {
			return n
		}
		return nil
	}
	if l := fatLeaf(n.left, threshold); l != nil {
		return l
	}
	return fatLeaf(n.right, threshold)
}

// TestLoadRejectsOutOfDomainClass: a stored family tuple whose class lies
// outside the schema's classes used to load, and the next Insert's refit
// of its fat leaf indexed past the builder's class tables.
func TestLoadRejectsOutOfDomainClass(t *testing.T) {
	raw := mutateSeedModel(t, func(bt *Tree) {
		leaf := fatLeaf(bt.root, bt.cfg.StopThreshold)
		if leaf == nil {
			t.Fatal("seed model has no fat leaf")
		}
		var tuples []data.Tuple
		if err := leaf.family.each(func(ch *data.Chunk, idx []int32) error {
			tuples = append(tuples, ch.GatherRows(idx)...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		tuples[0].Class = 1092097708
		env := bt.spillEnv(bt.budget)
		bag := data.NewTupleBagEnv(bt.schema, env)
		for _, tp := range tuples {
			if err := bag.Add(tp); err != nil {
				t.Fatal(err)
			}
		}
		leaf.family.close()
		leaf.family = newLeafFamily(bag, env)
	})
	requireCorruptModel(t, raw, data.ErrSchemaMismatch)
}

// TestLoadRejectsShortClassCounts: an internal node's class-count vector
// one entry short used to load, and the next Insert's chunk router
// indexed past it.
func TestLoadRejectsShortClassCounts(t *testing.T) {
	raw := mutateSeedModel(t, func(bt *Tree) {
		if bt.root.isLeaf() {
			t.Fatal("seed model's root is a leaf")
		}
		bt.root.classCounts = bt.root.classCounts[:len(bt.root.classCounts)-1]
	})
	requireCorruptModel(t, raw, nil)
}

// FuzzLoad feeds arbitrary bytes to Load and drives whatever loads
// through CheckConsistency, Tree and one Insert. Any panic is a crash; a
// rejected model must fail with a typed error and release every buffer
// it opened. Seeds: the seed model, truncated copies and bit-flipped
// copies of it.
func FuzzLoad(f *testing.F) {
	model := readSeedModel(f)
	f.Add(model)
	for _, cut := range []int{0, 8, 9, 40, len(model) / 3, len(model) / 2, len(model) - 1} {
		f.Add(model[:cut])
	}
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		m := bytes.Clone(model)
		m[rng.Intn(len(m))] ^= 1 << rng.Intn(8)
		f.Add(m)
	}
	schema := gen.Schema(0)
	chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 100, 99)
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		budget := data.NewMemBudget(600)
		cfg := seedModelConfig()
		cfg.Budget, cfg.TempDir = budget, dir
		bt, err := Load(bytes.NewReader(raw), schema, cfg)
		if err != nil {
			if !errors.Is(err, ErrCorruptModel) && !errors.Is(err, ErrConfigMismatch) {
				t.Fatalf("untyped Load error: %v", err)
			}
		} else {
			// A model that loads may still be wrong; errors here are
			// fine, panics and leaked buffers are not.
			_ = bt.CheckConsistency()
			_ = bt.Tree()
			_, _ = bt.Insert(chunk)
			bt.Close()
		}
		if used := budget.Used(); used != 0 {
			t.Fatalf("budget holds %d tuples after Load failed or the tree closed", used)
		}
		requireNoTempsUnder(t, dir)
	})
}
