package inmem

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/hull"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// pooledCase is one family of TestPooledFitMatchesInline: its first n
// tuples are fit first; then a tenth of its rows is removed, as many of
// the tuples after the first n are added, and the family is refit.
type pooledCase struct {
	name   string
	schema *data.Schema
	tuples []data.Tuple
	n      int
	cfg    Config
}

// pooledCases returns the families of TestPrunedSearchMatchesExhaustive,
// some smaller, so that the test stays short under the race detector:
// F1, F6 and F7 under gini and entropy at a stream window's fat-leaf
// shape (88k rows, 15k stop threshold) and grown to full depth (30k
// rows), adversarial draws of 5k to 25k rows, and 30k rows of 4 to
// hull.MaxClasses+4 classes; with a tenth more tuples to add; and a
// QUEST-like fit.
func pooledCases(t *testing.T) []pooledCase {
	methods := []split.Method{split.NewGini(), split.NewEntropy()}
	var cases []pooledCase
	for _, fn := range []int{1, 6, 7} {
		for _, shape := range []struct{ n, stop int }{{88_000, 15_000}, {30_000, 0}} {
			src := gen.MustSource(gen.Config{Function: fn, Noise: 0.05}, int64(shape.n+shape.n/10), int64(fn))
			tuples, err := data.ReadAll(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range methods {
				cases = append(cases, pooledCase{
					name:   fmt.Sprintf("F%d/n=%d/%s", fn, shape.n, m.Name()),
					schema: src.Schema(), tuples: tuples, n: shape.n,
					cfg: Config{Method: m, StopThreshold: int64(shape.stop), StopAtThreshold: shape.stop > 0},
				})
			}
		}
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		n := 5_000 + rng.Intn(20_000)
		schema, tuples := adversarialFamily(rng, n+n/10)
		cfg := Config{Method: methods[i%2], MinSplit: int64(2 + rng.Intn(10))}
		if rng.Intn(2) == 0 {
			cfg.MaxDepth = 2 + rng.Intn(12)
		}
		cases = append(cases, pooledCase{name: fmt.Sprintf("adversarial/%d", i), schema: schema, tuples: tuples, n: n, cfg: cfg})
	}
	for _, k := range []int{4, 8, hull.MaxClasses, hull.MaxClasses + 4} {
		schema, tuples := manyClassFamily(rand.New(rand.NewSource(int64(k))), 33_000, k, 500)
		for _, m := range methods {
			cases = append(cases, pooledCase{
				name: fmt.Sprintf("classes=%d/%s", k, m.Name()), schema: schema, tuples: tuples, n: 30_000,
				cfg: Config{Method: m, MaxDepth: 8},
			})
		}
	}
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 33_000, 3)
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, pooledCase{
		name: "F1/quest", schema: src.Schema(), tuples: tuples, n: 30_000,
		cfg: Config{Method: split.NewQuestLike(), MaxDepth: 10, MinSplit: 50},
	})
	return cases
}

// samePerms reports the first numeric attribute whose permutation differs
// between two families.
func samePerms(got, want *Family) error {
	for a := range want.perm {
		if !slices.Equal(got.perm[a], want.perm[a]) {
			return fmt.Errorf("permutation of attribute %d differs", a)
		}
	}
	return nil
}

// TestPooledFitMatchesInline: a fit run on a pool grows the inline fit's
// tree bit for bit, at every node's Attr, Kind, Subset and the bits of
// Threshold and Quality, and leaves the family in the same layout. Each
// family fits on pools of 2, 4 and 8 workers while a second, smaller
// family fits on the same pool, once from scratch and once as a refit
// after a Remove and an Add. Over the run every kind of task must have
// run on a worker other than its fit's owner at every pool size, so a
// pool that stops sharing fails here.
func TestPooledFitMatchesInline(t *testing.T) {
	sizes := []int{2, 4, 8}
	helped := make([][numTaskKinds]int64, len(sizes))
	for _, c := range pooledCases(t) {
		t.Run(c.name, func(t *testing.T) {
			partnerN := min(c.n, 6_000)
			// ref and refPartner fit inline; fams[i] and partners[i] on
			// a pool of sizes[i] workers.
			newFam := func(n int) *Family {
				f := NewFamily(c.schema, n)
				f.Add(chunkOf(c.schema, c.tuples[:n]), nil)
				return f
			}
			ref, refPartner := newFam(c.n), newFam(partnerN)
			fams, partners := make([]*Family, len(sizes)), make([]*Family, len(sizes))
			for i := range sizes {
				fams[i], partners[i] = newFam(c.n), newFam(partnerN)
			}
			for round := 0; round < 2; round++ {
				if round == 1 {
					// A family of n rows loses its first tenth and gains as
					// many of the tuples after c.n.
					for _, f := range append([]*Family{ref, refPartner}, append(fams, partners...)...) {
						tenth := f.Len() / 10
						if err := f.Remove(chunkOf(c.schema, c.tuples[:tenth]), nil); err != nil {
							t.Fatal(err)
						}
						f.Add(chunkOf(c.schema, c.tuples[c.n:c.n+tenth]), nil)
					}
				}
				want := ref.Build(c.cfg, nil)
				wantPartner := refPartner.Build(c.cfg, nil)
				for i, size := range sizes {
					pool := NewPool(size)
					got := make([]*tree.Tree, 2)
					err := run(pool, 2, func(w *Worker, j int) error {
						if j == 0 {
							got[0] = fams[i].Build(c.cfg, w)
						} else {
							got[1] = partners[i].Build(c.cfg, w)
						}
						return nil
					})
					if err != nil {
						t.Fatal(err)
					}
					for k, s := range pool.shared {
						helped[i][k] += s
					}
					for _, cmp := range []struct {
						got, want *tree.Tree
						f, ref    *Family
					}{{got[0], want, fams[i], ref}, {got[1], wantPartner, partners[i], refPartner}} {
						if err := sameSplits(cmp.got.Root, cmp.want.Root, "root"); err != nil {
							t.Fatalf("round %d, %d workers: %v", round, size, err)
						}
						if err := cmp.f.Check(); err != nil {
							t.Fatalf("round %d, %d workers: %v", round, size, err)
						}
						if err := samePerms(cmp.f, cmp.ref); err != nil {
							t.Fatalf("round %d, %d workers: %v", round, size, err)
						}
					}
				}
			}
		})
	}
	names := [numTaskKinds]string{"builder pass", "split search phase 1", "split search phase 2", "partition", "subtree"}
	for i, size := range sizes {
		t.Logf("%d workers: tasks run by a helper per kind %v", size, helped[i])
		for k, n := range helped[i] {
			if n == 0 {
				t.Errorf("%d workers: no %s task ran on a helper", size, names[k])
			}
		}
	}
}

// run runs job(w, i) for every i in [0, jobs) as one Fork on p's worker
// 0 and returns the Fork's error once every helper has stopped.
func run(p *Pool, jobs int, job func(w *Worker, i int) error) error {
	w, stop := p.Start()
	defer stop()
	return Fork(w, jobs, job)
}

// TestPoolRunsEveryJob: a pool runs every job once even when one fails,
// returns the failure only after every worker has stopped, and with one
// worker stops at the first failure.
func TestPoolRunsEveryJob(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 2, 8} {
		ran := make([]bool, 5)
		err := run(NewPool(workers), len(ran), func(w *Worker, i int) error {
			if (w == nil) != (workers == 1) {
				t.Errorf("%d workers: job %d ran with worker %v", workers, i, w)
			}
			ran[i] = true
			if i == 1 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("%d workers: run returned %v, want the job's error", workers, err)
		}
		want := []bool{true, true, true, true, true}
		if workers == 1 {
			want = []bool{true, true, false, false, false}
		}
		if !slices.Equal(ran, want) {
			t.Errorf("%d workers: jobs ran %v, want %v", workers, ran, want)
		}
	}
}

// TestForkJoinsNestedItems: on pools of 2 and 8 workers, forks nest inside
// items that other workers took, and every item of every fork runs once,
// on a worker; Fork returns the error of its lowest-numbered failed item,
// and only once every item has finished; run leaves no goroutine behind.
// With a nil worker, Fork runs the items in order and stops at the first
// error.
func TestForkJoinsNestedItems(t *testing.T) {
	first, later := errors.New("item 1"), errors.New("item 3")
	for _, workers := range []int{2, 8} {
		baseline := runtime.NumGoroutine()
		var ran [4][6][5]atomic.Int32
		var taken atomic.Int32 // jobs run by a helper
		err := run(NewPool(workers), len(ran), func(w *Worker, i int) error {
			if w.id != 0 {
				taken.Add(1)
			}
			return Fork(w, len(ran[i]), func(w *Worker, j int) error {
				return Fork(w, len(ran[i][j]), func(w *Worker, k int) error {
					if w == nil || w.id >= workers {
						t.Errorf("%d workers: item %d/%d/%d ran on worker %v", workers, i, j, k, w)
					}
					time.Sleep(100 * time.Microsecond)
					ran[i][j][k].Add(1)
					return nil
				})
			})
		})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if taken.Load() == 0 {
			t.Errorf("%d workers: no helper took a job", workers)
		}
		for i := range ran {
			for j := range ran[i] {
				for k := range ran[i][j] {
					if n := ran[i][j][k].Load(); n != 1 {
						t.Errorf("%d workers: item %d/%d/%d ran %d times", workers, i, j, k, n)
					}
				}
			}
		}

		// Item 1 fails last, after item 3 has failed.
		var finished atomic.Int32
		errs := []error{nil, first, nil, later, nil}
		err = run(NewPool(workers), 1, func(w *Worker, _ int) error {
			err := Fork(w, len(errs), func(_ *Worker, i int) error {
				if i == 1 {
					time.Sleep(20 * time.Millisecond)
				}
				finished.Add(1)
				return errs[i]
			})
			if n := finished.Load(); n != int32(len(errs)) {
				t.Errorf("%d workers: Fork returned after %d of %d items", workers, n, len(errs))
			}
			return err
		})
		if err != first {
			t.Errorf("%d workers: run returned %v, want %v", workers, err, first)
		}

		deadline := time.Now().Add(time.Second)
		for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > baseline {
			t.Errorf("%d workers: %d goroutines after run, %d before", workers, n, baseline)
		}
	}

	var order []int
	err := Fork(nil, 5, func(w *Worker, i int) error {
		if w != nil {
			t.Errorf("item %d ran on worker %v", i, w)
		}
		order = append(order, i)
		if i >= 2 {
			return first
		}
		return nil
	})
	if err != first || !slices.Equal(order, []int{0, 1, 2}) {
		t.Errorf("nil worker: items ran %v and returned %v, want [0 1 2] and %v", order, err, first)
	}
}
