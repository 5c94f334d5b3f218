package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// multiset removal helper for building reference datasets.
func subtract(all, removed []data.Tuple) []data.Tuple {
	pending := make(map[string]int)
	for _, tp := range removed {
		pending[tp.Key()]++
	}
	var out []data.Tuple
	for _, tp := range all {
		if k := tp.Key(); pending[k] > 0 {
			pending[k]--
			continue
		}
		out = append(out, tp)
	}
	return out
}

// TestIncrementalInsertStableDistribution is Section 4 + Figure 13: new
// chunks from the same distribution are absorbed with a single chunk scan
// and the tree remains exactly the from-scratch tree.
func TestIncrementalInsertStableDistribution(t *testing.T) {
	for _, m := range []split.Method{split.NewGini(), split.NewQuestLike()} {
		t.Run(m.Name(), func(t *testing.T) {
			g := inmem.Config{Method: m, MaxDepth: 5, MinSplit: 100}
			base := gen.MustSource(gen.Config{Function: 1, Noise: 0.10}, 6000, 1)
			bt, err := Build(base, Config{Method: m, MaxDepth: 5, MinSplit: 100, SampleSize: 1500, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			defer bt.Close()
			all, _ := data.ReadAll(base)
			for chunkSeed := int64(2); chunkSeed <= 5; chunkSeed++ {
				chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.10}, 3000, chunkSeed)
				upd, err := bt.Insert(chunk)
				if err != nil {
					t.Fatal(err)
				}
				if upd.TuplesSeen != 3000 {
					t.Errorf("chunk %d: streamed %d tuples", chunkSeed, upd.TuplesSeen)
				}
				ct, _ := data.ReadAll(chunk)
				all = append(all, ct...)
				ref := inmem.Build(base.Schema(), data.CloneTuples(all), g)
				requireEqual(t, fmt.Sprintf("after insert %d", chunkSeed), bt.Tree(), ref)
				if err := bt.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestIncrementalDelete checks the symmetric deletion path: expiring a
// chunk leaves exactly the tree built on the remaining data.
func TestIncrementalDelete(t *testing.T) {
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 100}
	base := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 8000, 1)
	bt, err := Build(base, Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 100, SampleSize: 2000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	all, _ := data.ReadAll(base)

	chunk2 := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 4000, 2)
	if _, err := bt.Insert(chunk2); err != nil {
		t.Fatal(err)
	}
	ct, _ := data.ReadAll(chunk2)
	all = append(all, ct...)

	// Expire the chunk again.
	if _, err := bt.Delete(chunk2); err != nil {
		t.Fatal(err)
	}
	all = subtract(all, ct)
	ref := inmem.Build(base.Schema(), data.CloneTuples(all), g)
	requireEqual(t, "after delete", bt.Tree(), ref)
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}

	// Delete part of the original data too (sliding window).
	firstHalf := data.NewMemSource(base.Schema(), data.CloneTuples(all[:2000]))
	if _, err := bt.Delete(firstHalf); err != nil {
		t.Fatal(err)
	}
	remaining := data.CloneTuples(all[2000:])
	ref = inmem.Build(base.Schema(), data.CloneTuples(remaining), g)
	requireEqual(t, "after window slide", bt.Tree(), ref)
}

// TestIncrementalDistributionChange is Figure 14: a chunk from a shifted
// distribution invalidates coarse criteria in part of the attribute space;
// the affected subtrees are rebuilt and the result is still exact.
func TestIncrementalDistributionChange(t *testing.T) {
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 100}
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 8000, 1)
	bt, err := Build(base, Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 100, SampleSize: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	all, _ := data.ReadAll(base)

	shifted := gen.MustSource(gen.Config{Function: 1, Shifted: true, Noise: 0.05}, 8000, 44)
	upd, err := bt.Insert(shifted)
	if err != nil {
		t.Fatal(err)
	}
	st, _ := data.ReadAll(shifted)
	all = append(all, st...)
	ref := inmem.Build(base.Schema(), data.CloneTuples(all), g)
	requireEqual(t, "after distribution change", bt.Tree(), ref)
	if upd.RebuiltSubtrees == 0 && upd.RefittedLeaves == 0 {
		t.Error("a distribution change should have rebuilt or refitted something")
	}
	t.Logf("distribution change: %+v", upd)
}

// TestIncrementalGrowthPromotesLeaves: inserting enough data pushes stored
// leaf families past the in-memory threshold; the resident ones are grown
// in memory, and the tree must stay exact.
func TestIncrementalGrowthPromotesLeaves(t *testing.T) {
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 6, MinSplit: 50}
	base := gen.MustSource(gen.Config{Function: 2, Noise: 0.05}, 3000, 1)
	bt, err := Build(base, Config{
		Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
		SampleSize: 800, Seed: 11, StopThreshold: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	all, _ := data.ReadAll(base)
	for chunkSeed := int64(2); chunkSeed <= 4; chunkSeed++ {
		chunk := gen.MustSource(gen.Config{Function: 2, Noise: 0.05}, 3000, chunkSeed)
		if _, err := bt.Insert(chunk); err != nil {
			t.Fatal(err)
		}
		ct, _ := data.ReadAll(chunk)
		all = append(all, ct...)
		ref := inmem.Build(base.Schema(), data.CloneTuples(all), g)
		requireEqual(t, fmt.Sprintf("growth chunk %d", chunkSeed), bt.Tree(), ref)
	}
}

// TestIncrementalShrinkDemotesNodes: deleting most of the data demotes
// internal nodes (stop mode) and the tree still matches a rebuild.
func TestIncrementalShrinkStopMode(t *testing.T) {
	g := inmem.Config{Method: split.NewGini(), StopThreshold: 800, StopAtThreshold: true}
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 10000, 1)
	bt, err := Build(base, Config{
		Method: split.NewGini(), StopThreshold: 800, StopAtThreshold: true,
		SampleSize: 2000, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	all, _ := data.ReadAll(base)
	// Expire 70% of the data.
	expired := data.NewMemSource(base.Schema(), data.CloneTuples(all[:7000]))
	if _, err := bt.Delete(expired); err != nil {
		t.Fatal(err)
	}
	remaining := data.CloneTuples(all[7000:])
	ref := inmem.Build(base.Schema(), remaining, g)
	requireEqual(t, "after mass deletion", bt.Tree(), ref)
}

// TestIncrementalStopModeChunks mirrors the Figure 13/15 setup exactly:
// stop-at-threshold trees maintained under chunk arrivals.
func TestIncrementalStopModeChunks(t *testing.T) {
	g := inmem.Config{Method: split.NewGini(), StopThreshold: 1500, StopAtThreshold: true}
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.10}, 6000, 1)
	bt, err := Build(base, Config{
		Method: split.NewGini(), StopThreshold: 1500, StopAtThreshold: true,
		SampleSize: 1500, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	all, _ := data.ReadAll(base)
	for chunkSeed := int64(2); chunkSeed <= 4; chunkSeed++ {
		chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.10}, 4000, chunkSeed)
		if _, err := bt.Insert(chunk); err != nil {
			t.Fatal(err)
		}
		ct, _ := data.ReadAll(chunk)
		all = append(all, ct...)
		ref := inmem.Build(base.Schema(), data.CloneTuples(all), g)
		requireEqual(t, fmt.Sprintf("stop-mode chunk %d", chunkSeed), bt.Tree(), ref)
	}
}

// TestIncrementalMixedOperations interleaves inserts and deletes.
func TestIncrementalMixedOperations(t *testing.T) {
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50}
	base := gen.MustSource(gen.Config{Function: 7, Noise: 0.05}, 5000, 1)
	bt, err := Build(base, Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50, SampleSize: 1200, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	all, _ := data.ReadAll(base)
	chunks := make([][]data.Tuple, 0)
	for chunkSeed := int64(2); chunkSeed <= 4; chunkSeed++ {
		chunk := gen.MustSource(gen.Config{Function: 7, Noise: 0.05}, 2000, chunkSeed)
		if _, err := bt.Insert(chunk); err != nil {
			t.Fatal(err)
		}
		ct, _ := data.ReadAll(chunk)
		chunks = append(chunks, ct)
		all = append(all, ct...)
	}
	// Expire the first two chunks in one call.
	expired := append(data.CloneTuples(chunks[0]), chunks[1]...)
	if _, err := bt.Delete(data.NewMemSource(base.Schema(), expired)); err != nil {
		t.Fatal(err)
	}
	all = subtract(all, expired)
	ref := inmem.Build(base.Schema(), data.CloneTuples(all), g)
	requireEqual(t, "mixed operations", bt.Tree(), ref)
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestUpdateErrors covers the error paths of Insert/Delete.
func TestUpdateErrors(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1}, 1000, 1)
	bt, err := Build(base, Config{Method: split.NewGini(), MaxDepth: 3, SampleSize: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	other := data.NewMemSource(data.MustSchema([]data.Attribute{{Name: "z", Kind: data.Numeric}}, 2), nil)
	if _, err := bt.Insert(other); err == nil {
		t.Error("schema mismatch not detected")
	}
	bt.Close()
	if _, err := bt.Insert(base); err == nil {
		t.Error("update of a closed tree not detected")
	}
	if err := bt.CheckConsistency(); err == nil {
		t.Error("consistency check of a closed tree should fail")
	}
}

// TestDanglingDeleteFailsUpdate: deleting tuples the tree never held
// fails the update with the dangling-removal error. Removals routed into
// a stuck set surface when verification reads the set; that read error
// must fail the pass, not count as a confidence-interval miss that
// rebuilds the subtree. The first case runs on a loaded model, whose
// leaves are all bags, so no removal fails while the chunk is routed and
// the stuck set's read is the first to see one. A Delete of more tuples
// than the loaded model holds drives the class counts below zero, so the
// root is demoted: gathering its family must fail on the bags' unmatched
// removals, not size the family from a negative count. In stop mode,
// after an update has moved the fat leaves into presorted families, the
// removals that reach a family fail the update while the chunk is routed.
func TestDanglingDeleteFailsUpdate(t *testing.T) {
	f1 := gen.Config{Function: 1, Noise: 0.05}
	base := gen.MustSource(f1, 6000, 1)
	reg := obs.NewRegistry()
	cfg := Config{
		Method: split.NewGini(), MaxDepth: 5, MinSplit: 100,
		SampleSize: 1500, Seed: 7, Metrics: reg,
	}
	built, err := Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	bt := saveLoad(t, built, cfg)
	defer bt.Close()
	misses := reg.Snapshot().Counters["verify.ci.miss"]
	upd, err := bt.Delete(gen.MustSource(f1, 500, 2))
	if err == nil || !strings.Contains(err.Error(), "did not match any tuple in the bag") {
		t.Fatalf("dangling delete returned %v, want the bag's dangling-removal error", err)
	}
	if strings.Contains(err.Error(), "rebuild") || upd.RebuiltSubtrees != 0 {
		t.Errorf("dangling delete rebuilt %d subtree(s): %v", upd.RebuiltSubtrees, err)
	}
	if got := reg.Snapshot().Counters["verify.ci.miss"]; got != misses {
		t.Errorf("dangling delete counted %d confidence-interval misses", got-misses)
	}

	over := saveLoad(t, built, cfg)
	defer over.Close()
	_, err = over.Delete(gen.MustSource(f1, 10_000, 2))
	if err == nil || !errors.Is(err, ErrBrokenModel) || !strings.Contains(err.Error(), "did not match any tuple in the bag") {
		t.Fatalf("delete of more tuples than the tree holds returned %v, want a broken model with the bag's dangling-removal error", err)
	}

	stop, err := Build(gen.MustSource(f1, 20000, 1), Config{
		Method: split.NewGini(), StopThreshold: 5000, StopAtThreshold: true,
		SampleSize: 4000, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer stop.Close()
	if _, err := stop.Insert(gen.MustSource(f1, 2000, 2)); err != nil {
		t.Fatal(err)
	}
	if len(presortedLeaves(stop.root, nil)) == 0 {
		t.Fatal("the insert's refit kept no presorted family")
	}
	upd, err = stop.Delete(gen.MustSource(f1, 500, 3))
	if err == nil || !strings.Contains(err.Error(), "did not match any live row of the family") {
		t.Fatalf("stop mode: dangling delete returned %v, want the presorted family's dangling-removal error", err)
	}
	if upd.RebuiltSubtrees != 0 || !errors.Is(err, ErrBrokenModel) {
		t.Errorf("stop mode: dangling delete rebuilt %d subtree(s), returned %v", upd.RebuiltSubtrees, err)
	}
}

// TestTreeMaterializationIsolated: trees returned by Tree() must not be
// mutated by later updates.
func TestTreeMaterializationIsolated(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.1}, 4000, 1)
	bt, err := Build(base, Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50, SampleSize: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	before := bt.Tree()
	snapshot := before.String()
	chunk := gen.MustSource(gen.Config{Function: 1, Shifted: true, Noise: 0.1}, 6000, 2)
	if _, err := bt.Insert(chunk); err != nil {
		t.Fatal(err)
	}
	if before.String() != snapshot {
		t.Error("materialized tree mutated by a later insert")
	}
}
