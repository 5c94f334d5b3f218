package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// sameTreeBits reports the first node, in preorder, where two trees differ
// in shape, class counts or a split's Attr, Kind, Subset, or Threshold and
// Quality bits.
func sameTreeBits(got, want *tree.Node, path string) error {
	if got.IsLeaf() != want.IsLeaf() || fmt.Sprint(got.ClassCounts) != fmt.Sprint(want.ClassCounts) {
		return fmt.Errorf("%s: leaf %v counts %v, want leaf %v counts %v", path, got.IsLeaf(), got.ClassCounts, want.IsLeaf(), want.ClassCounts)
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
	if err := sameTreeBits(got.Left, want.Left, path+"L"); err != nil {
		return err
	}
	return sameTreeBits(got.Right, want.Right, path+"R")
}

// fatLeaves returns the leaves holding a presorted family, largest first.
func fatLeaves(bt *Tree) []*bnode {
	sizes := presortedLeaves(bt.root, nil)
	leaves := make([]*bnode, 0, len(sizes))
	for n := range sizes {
		leaves = append(leaves, n)
	}
	sort.Slice(leaves, func(i, j int) bool { return sizes[leaves[i]] > sizes[leaves[j]] })
	return leaves
}

// TestLeafCompletionSharesWork: leaf completion runs the dirty leaves as
// the jobs of one work-sharing pool. An F1 model in stop mode holds two
// fat leaves of unequal size; over insert and delete rounds, the models
// at Parallelism 1, 2 and 8 stay bit-identical, equal to the in-memory
// reference and save to the same bytes. Then, at Parallelism 2 and 8,
// one leaf's fit fails reading its spilled bag: the update returns that
// error, the other leaf's refit finishes, and no goroutine is left
// behind.
func TestLeafCompletionSharesWork(t *testing.T) {
	gcfg := gen.Config{Function: 1, Noise: 0.05}
	base := gen.MustSource(gcfg, 60_000, 41)
	cfg := Config{
		Method: split.NewGini(), StopThreshold: 15_000, StopAtThreshold: true,
		SampleSize: 3_000, Seed: 5,
	}
	g := cfg.growConfig(0)
	current, err := data.ReadAll(base)
	if err != nil {
		t.Fatal(err)
	}
	schema := base.Schema()
	ps := []int{1, 2, 8}
	models := make([]*Tree, len(ps))
	for i, p := range ps {
		c := cfg
		c.Parallelism, c.TempDir = p, t.TempDir()
		if models[i], err = Build(base, c); err != nil {
			t.Fatal(err)
		}
		defer models[i].Close()
	}
	fat := fatLeaves(models[0])
	if len(fat) < 2 || fat[0].family.len() == fat[1].family.len() {
		t.Fatalf("the model holds %d fat leaves, want two of unequal size", len(fat))
	}
	t.Logf("fat leaves of %d and %d rows", fat[0].family.len(), fat[1].family.len())
	check := func(op string) {
		t.Helper()
		want := models[0].Tree()
		if ref := inmem.Build(schema, data.CloneTuples(current), g); !want.Equal(ref) {
			t.Fatalf("%s: Parallelism 1 differs from the reference: %s", op, want.Diff(ref))
		}
		var saved bytes.Buffer
		if err := models[0].Save(&saved); err != nil {
			t.Fatal(err)
		}
		for i, bt := range models[1:] {
			if err := sameTreeBits(bt.Tree().Root, want.Root, "root"); err != nil {
				t.Fatalf("%s: Parallelism %d: %v", op, ps[i+1], err)
			}
			var buf bytes.Buffer
			if err := bt.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), saved.Bytes()) {
				t.Fatalf("%s: Parallelism %d saves other bytes than Parallelism 1", op, ps[i+1])
			}
		}
	}
	check("build")
	var chunks [][]data.Tuple
	for round := 0; round < 3; round++ {
		chunk, err := data.ReadAll(gen.MustSource(gcfg, 6_000, int64(100+round)))
		if err != nil {
			t.Fatal(err)
		}
		for _, bt := range models {
			upd, err := bt.Insert(data.NewMemSource(schema, chunk))
			if err != nil {
				t.Fatal(err)
			}
			if upd.RefittedLeaves < 2 {
				t.Fatalf("round %d insert refit %d leaves, want both fat leaves", round, upd.RefittedLeaves)
			}
		}
		current = append(current, data.CloneTuples(chunk)...)
		chunks = append(chunks, chunk)
		check(fmt.Sprintf("round %d insert", round))
		if round == 0 {
			continue
		}
		expired := chunks[0]
		chunks = chunks[1:]
		for _, bt := range models {
			if _, err := bt.Delete(data.NewMemSource(schema, expired)); err != nil {
				t.Fatal(err)
			}
		}
		current = subtract(current, expired)
		check(fmt.Sprintf("round %d delete", round))
	}

	for _, p := range ps[1:] {
		t.Run(fmt.Sprintf("fault/P%d", p), func(t *testing.T) { leafFitFault(t, p) })
	}
}

// armedReadFS fails every Open once armed.
type armedReadFS struct{ armed atomic.Bool }

var errReadGone = errors.New("test: spill file unreadable")

func (f *armedReadFS) CreateTemp(dir, pattern string) (data.File, error) {
	return data.OsFS{}.CreateTemp(dir, pattern)
}
func (f *armedReadFS) Open(name string) (io.ReadCloser, error) {
	if f.armed.Load() {
		return nil, errReadGone
	}
	return data.OsFS{}.Open(name)
}
func (f *armedReadFS) Remove(name string) error { return data.OsFS{}.Remove(name) }
func (f *armedReadFS) Rename(oldpath, newpath string) error {
	return data.OsFS{}.Rename(oldpath, newpath)
}

// leafFitFault builds an F1 model that fits every leaf in memory at
// Parallelism p, moves the family of its second-largest leaf into a bag
// that spilled to a filesystem whose reads then fail, and inserts a chunk
// that dirties both leaves. The insert must fail with the read fault
// while the largest leaf's refit still finishes, and leave no goroutine
// behind.
func leafFitFault(t *testing.T, p int) {
	gcfg := gen.Config{Function: 1, Noise: 0.05}
	base := gen.MustSource(gcfg, 60_000, 43)
	bt, err := Build(base, Config{
		Method: split.NewGini(), MaxDepth: 8, MinSplit: 50, SampleSize: 3_000, Seed: 5,
		Parallelism: p, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	fat := fatLeaves(bt)
	if len(fat) < 2 {
		t.Fatalf("the model holds %d leaves with a family, want two", len(fat))
	}
	big, small := fat[0], fat[1]
	fs := &armedReadFS{}
	env := data.SpillEnv{Dir: t.TempDir(), Budget: data.NewMemBudget(-1), FS: fs}
	bag := data.NewTupleBagEnv(bt.schema, env)
	if err := small.family.each(bag.AddChunkRows); err != nil {
		t.Fatal(err)
	}
	small.family.close()
	small.family = newLeafFamily(bag, env)
	if !small.family.spilled() {
		t.Fatal("the moved family did not spill")
	}
	fs.armed.Store(true)
	before, bigFit := runtime.NumGoroutine(), big.subtree

	chunk := gen.MustSource(gcfg, 6_000, 47)
	_, err = bt.Insert(chunk)
	if !errors.Is(err, errReadGone) {
		t.Fatalf("insert returned %v, want the read fault", err)
	}
	if big.subtree == bigFit || big.dirty {
		t.Error("the other leaf's refit did not finish")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after the failed update, %d before", n, before)
	}
}
