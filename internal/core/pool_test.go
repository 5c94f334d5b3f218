package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// TestOnePoolPerOperation: a build whose spilled frontier families get
// recursive BOAT invocations (the spilled case of
// TestFrontierPathFollowsSpill), then an Insert and a Delete of one chunk,
// each start exactly one pool at Parallelism 1, 2 and 8: the recursions'
// bootstrap trees, router descents and leaf completions fork on the
// operation's pool instead of starting pools of their own. Every tree
// equals Parallelism 1's bit for bit and the in-memory reference.
func TestOnePoolPerOperation(t *testing.T) {
	const n, threshold = 25000, 3750
	gcfg := gen.Config{Function: 1, Noise: 0.05}
	src := gen.MustSource(gcfg, n, 4)
	schema := src.Schema()
	base, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	chunk, err := data.ReadAll(gen.MustSource(gcfg, 2500, 9))
	if err != nil {
		t.Fatal(err)
	}
	g := inmem.Config{Method: split.NewGini(), StopThreshold: threshold, StopAtThreshold: true}
	withChunk := append(data.CloneTuples(base), data.CloneTuples(chunk)...)
	refs := []*tree.Tree{
		inmem.Build(schema, data.CloneTuples(base), g),
		inmem.Build(schema, withChunk, g),
		inmem.Build(schema, data.CloneTuples(base), g),
	}

	var pools atomic.Int64
	newPool = func(workers int) *inmem.Pool {
		pools.Add(1)
		return inmem.NewPool(workers)
	}
	defer func() { newPool = inmem.NewPool }()

	run := func(p int) []*tree.Tree {
		dir := t.TempDir()
		budget := data.NewMemBudget(2000)
		var bt *Tree
		ops := []struct {
			name string
			do   func() error
		}{
			{"build", func() (err error) {
				bt, err = Build(src, Config{
					Method: split.NewGini(), SampleSize: n / 50, SubsampleSize: n / 200,
					StopThreshold: threshold, StopAtThreshold: true, Seed: 1,
					Parallelism: p, Budget: budget, TempDir: dir,
				})
				return err
			}},
			{"insert", func() error {
				_, err := bt.Insert(data.NewMemSource(schema, chunk))
				return err
			}},
			{"delete", func() error {
				_, err := bt.Delete(data.NewMemSource(schema, chunk))
				return err
			}},
		}
		trees := make([]*tree.Tree, len(ops))
		for i, op := range ops {
			pools.Store(0)
			if err := op.do(); err != nil {
				t.Fatalf("P%d %s: %v", p, op.name, err)
			}
			if got := pools.Load(); got != 1 {
				t.Errorf("P%d %s started %d pools, want 1", p, op.name, got)
			}
			trees[i] = bt.Tree()
			requireEqual(t, fmt.Sprintf("P%d %s", p, op.name), trees[i], refs[i])
		}
		if bt.BuildStats().FrontierRebuilds == 0 {
			t.Errorf("P%d: the build ran no recursive invocation", p)
		}
		if err := bt.Close(); err != nil {
			t.Fatal(err)
		}
		if used := budget.Used(); used != 0 {
			t.Errorf("P%d: budget holds %d tuples after Close", p, used)
		}
		requireNoTempsUnder(t, dir)
		return trees
	}
	want := run(1)
	for _, p := range []int{2, 8} {
		for i, got := range run(p) {
			if err := sameTreeBits(got.Root, want[i].Root, "root"); err != nil {
				t.Errorf("P%d after operation %d: %v", p, i, err)
			}
		}
	}
}

// failCreateFS is the real filesystem, except that no file can be
// created.
type failCreateFS struct{ data.OsFS }

var errCreateGone = errors.New("test: spill file cannot be created")

func (failCreateFS) CreateTemp(dir, pattern string) (data.File, error) { return nil, errCreateGone }

// storedRows counts the rows the buffers of the subtree rooted at n hold:
// its leaves' families and the stuck tuples not yet pushed down.
func storedRows(n *bnode) int64 {
	if n.isLeaf() {
		return n.family.len()
	}
	var s int64
	if n.pending != nil {
		s = n.pending.Len()
	}
	return s + storedRows(n.left) + storedRows(n.right)
}

// forEachLeaf calls fn on every leaf of the subtree rooted at n.
func forEachLeaf(n *bnode, fn func(*bnode)) {
	if n.isLeaf() {
		fn(n)
		return
	}
	forEachLeaf(n.left, fn)
	forEachLeaf(n.right, fn)
}

// TestForkedDescentFault: when the chunk router forks the two descents
// below the root, a storage fault in either one comes back from the
// update, the other descent still stores every row routed to it, and no
// goroutine is left behind. An F1 model at Parallelism 2 or 8 has every
// leaf below one child of its root hold its rows in a bag whose next row
// must spill to a filesystem that cannot create files; then one chunk,
// which sends at least forkMinRows rows to each child, is inserted.
func TestForkedDescentFault(t *testing.T) {
	gcfg := gen.Config{Function: 1, Noise: 0.05}
	chunk, err := data.ReadAll(gen.MustSource(gcfg, data.DefaultChunkRows, 53))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 8} {
		for _, side := range []string{"left", "right"} {
			t.Run(fmt.Sprintf("P%d/%s", p, side), func(t *testing.T) {
				bt, err := Build(gen.MustSource(gcfg, 30_000, 51), Config{
					Method: split.NewGini(), MaxDepth: 6, MinSplit: 50, SampleSize: 3_000, Seed: 5,
					Parallelism: p, TempDir: t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer bt.Close()
				root := bt.root
				if root.isLeaf() {
					t.Fatal("the root is a leaf")
				}
				var left, right int
				c := root.coarse
				for _, tp := range chunk {
					v := tp.Values[c.attr]
					switch {
					case c.kind == data.Categorical:
						if code := uint(v); code < 64 && c.subset&(1<<code) != 0 {
							left++
						} else {
							right++
						}
					case v <= c.lo:
						left++
					case v > c.hi || v != v:
						right++
					}
				}
				if left < forkMinRows || right < forkMinRows {
					t.Fatalf("the chunk sends %d rows left and %d right of the root, want %d each", left, right, forkMinRows)
				}
				faulty, other, otherRows := root.left, root.right, right
				if side == "right" {
					faulty, other, otherRows = root.right, root.left, left
				}
				dir := t.TempDir()
				forEachLeaf(faulty, func(n *bnode) {
					limit := n.family.len()
					if limit == 0 {
						limit = -1 // a zero limit would mean no limit
					}
					env := data.SpillEnv{Dir: dir, Budget: data.NewMemBudget(limit), FS: failCreateFS{}, Retry: noSleep}
					bag := data.NewTupleBagEnv(bt.schema, env)
					if err := n.family.each(bag.AddChunkRows); err != nil {
						t.Fatal(err)
					}
					n.family.close()
					n.family = newLeafFamily(bag, env)
				})
				before, stored := runtime.NumGoroutine(), storedRows(other)

				_, err = bt.Insert(data.NewMemSource(bt.schema, chunk))
				if !errors.Is(err, errCreateGone) || !errors.Is(err, ErrBrokenModel) {
					t.Fatalf("insert returned %v, want a broken model by the create fault", err)
				}
				if got := storedRows(other) - stored; got != int64(otherRows) {
					t.Errorf("the other descent stored %d of its %d rows", got, otherRows)
				}
				waitGoroutines(t, before)
			})
		}
	}
}
