package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
)

// requireBroken checks the fail-stop contract of a tree an update left
// part-way: every later update and save fails with ErrBrokenModel and the
// first failure (which cause recognizes), Ready and CheckConsistency
// report it, the epoch stays put, and Snapshot keeps returning last —
// or, when no epoch was ever published, fails too.
func requireBroken(t *testing.T, bt *Tree, cause func(error) bool, last *Snapshot, more data.Source) {
	t.Helper()
	want := func(op string, err error) {
		t.Helper()
		if !errors.Is(err, ErrBrokenModel) || !cause(err) {
			t.Fatalf("%s on a broken model: got %v, want ErrBrokenModel with the first failure", op, err)
		}
	}
	epoch := bt.epoch.Load()
	_, err := bt.Insert(more)
	want("insert", err)
	_, err = bt.Delete(more)
	want("delete", err)
	want("save", bt.Save(io.Discard))
	path := filepath.Join(t.TempDir(), "model.boat")
	want("save file", bt.SaveFile(path))
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("a broken model was saved to %s (stat: %v)", path, err)
	}
	want("ready", bt.Ready())
	want("consistency check", bt.CheckConsistency())
	if got := bt.epoch.Load(); got != epoch {
		t.Errorf("epoch moved from %d to %d on a broken model", epoch, got)
	}
	s, err := bt.Snapshot()
	if last == nil {
		want("snapshot", err)
	} else if err != nil || s != last {
		t.Errorf("snapshot of a broken model: got %v (err %v), want the last published epoch %d", s, err, last.Epoch)
	}
}

// TestFailedUpdateBreaksModel pins the fail-stop rule: an update that
// fails after its first chunk reached the router leaves the tree holding
// part of the update, equal to the reference on no multiset. The next
// update used to succeed on top of it and publish the corrupt tree; now
// the tree is broken, and refuses every further update and save.
func TestFailedUpdateBreaksModel(t *testing.T) {
	// The insert's first spill writes fail while its chunk is being routed:
	// subtest writeN fails the insert's (N-21)th spill write, counted from
	// the end of the build.
	t.Run("spill fault while routing", func(t *testing.T) {
		base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 12000, 77)
		baseTuples, err := data.ReadAll(base)
		if err != nil {
			t.Fatal(err)
		}
		ins := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 3000, 78)
		for _, fail := range []int64{22, 23, 24} {
			t.Run(fmt.Sprintf("write%d", fail), func(t *testing.T) {
				fs := &failNthWriteFS{}
				budget := data.NewMemBudget(32)
				dir := t.TempDir()
				bt, err := Build(base, Config{
					Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
					SampleSize: 1500, Seed: 11, Parallelism: 1,
					Budget: budget, FS: fs, SpillRetry: noSleep, TempDir: dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				fs.failWrite = fs.writes.Load() + fail - 21
				s0, err := bt.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				_, err = bt.Insert(ins)
				if !data.IsSpillError(err) || !errors.Is(err, ErrBrokenModel) {
					t.Fatalf("insert: got %v, want a spill error that breaks the model", err)
				}
				requireBroken(t, bt, data.IsSpillError, s0,
					data.NewMemSource(base.Schema(), data.CloneTuples(baseTuples[:10])))
				bt.Close()
				if budget.Used() != 0 {
					t.Errorf("budget used = %d after close", budget.Used())
				}
				requireNoTempsUnder(t, dir)
			})
		}
	})

	// Tuple 9,000 of the insert carries an out-of-domain code: the insert's
	// first two chunks were routed before the third failed the domain check.
	t.Run("late domain failure", func(t *testing.T) {
		schema := advSchema()
		base := advTuples(20000, 3, false)
		bt, err := Build(data.NewMemSource(schema, data.CloneTuples(base)), Config{
			Method: split.NewGini(), MaxDepth: 4, MinSplit: 50, SampleSize: 2000, Seed: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer bt.Close()
		chunk := advTuples(10000, 4, false)
		chunk[9000] = data.Tuple{Values: []float64{1, 2, 70}, Class: 0}
		upd, err := bt.Insert(data.NewMemSource(schema, chunk))
		if !errors.Is(err, data.ErrSchemaMismatch) || !errors.Is(err, ErrBrokenModel) {
			t.Fatalf("insert: got %v, want a schema mismatch that breaks the model", err)
		}
		if upd.Chunks == 0 {
			t.Fatal("no chunk reached the router before the bad tuple")
		}
		isDomain := func(err error) bool { return errors.Is(err, data.ErrSchemaMismatch) }
		requireBroken(t, bt, isDomain, nil,
			data.NewMemSource(schema, data.CloneTuples(base[:5])))
	})
}
