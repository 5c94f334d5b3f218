package core

import (
	"fmt"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

// TestParallelDeterminism is the contract of Config.Parallelism: for the
// same data and seed, every worker count produces the bit-identical tree.
// Sequential (Parallelism=1) runs the exact pre-parallelism code path, so
// it doubles as a regression anchor; Parallelism=8 on any machine still
// exercises the concurrent bootstrap, the sharded cleanup scan and the
// parallel leaf completion (goroutines interleave even on one core). The
// variants cover both verification families and the paths that share
// mutable state across workers: spill budgets and frontier promotions
// (nested BOAT invocations drawing rebuild seeds concurrently).
func TestParallelDeterminism(t *testing.T) {
	variants := []struct {
		name string
		cfg  Config
	}{
		{"gini", Config{
			Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
			SampleSize: 1500, Seed: 11,
		}},
		{"moments", Config{
			Method: split.NewQuestLike(), MaxDepth: 5, MinSplit: 50,
			SampleSize: 1500, Seed: 11,
		}},
		{"gini-spill", Config{
			Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
			SampleSize: 1500, Seed: 11, MemBudgetTuples: 500,
		}},
		{"gini-promote", Config{
			Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
			SampleSize: 800, Seed: 7, StopThreshold: 1200,
		}},
	}
	for _, fn := range []int{1, 6} {
		for _, v := range variants {
			t.Run(fmt.Sprintf("F%d/%s", fn, v.name), func(t *testing.T) {
				// >= 2 scan chunks so the sharded scan actually engages.
				src := gen.MustSource(gen.Config{Function: fn, Noise: 0.05}, 3*data.DefaultChunkRows, int64(fn)*100+7)

				g := inmem.Config{
					Method: v.cfg.Method, MaxDepth: v.cfg.MaxDepth, MinSplit: v.cfg.MinSplit,
					StopThreshold: v.cfg.StopThreshold, StopAtThreshold: v.cfg.StopAtThreshold,
				}
				ref := buildRef(t, src, g)

				cfgSeq := v.cfg
				cfgSeq.Parallelism = 1
				cfgSeq.TempDir = t.TempDir()
				seq, err := Build(src, cfgSeq)
				if err != nil {
					t.Fatal(err)
				}
				defer seq.Close()

				cfgPar := v.cfg
				cfgPar.Parallelism = 8
				cfgPar.TempDir = t.TempDir()
				par, err := Build(src, cfgPar)
				if err != nil {
					t.Fatal(err)
				}
				defer par.Close()

				requireEqual(t, "parallel vs sequential", par.Tree(), seq.Tree())
				requireEqual(t, "parallel vs reference", par.Tree(), ref)
				if err := par.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestParallelIncremental checks that updates applied to a tree built and
// processed with Parallelism > 1 maintain exactness: after inserting a
// chunk, the tree equals the reference built over the union, for both a
// sequential and a parallel BOAT tree.
func TestParallelIncremental(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 2*data.DefaultChunkRows, 21)
	chunk := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, data.DefaultChunkRows, 22)

	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			bt, err := Build(base, Config{
				Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
				SampleSize: 1500, Seed: 5, Parallelism: p, TempDir: t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			defer bt.Close()
			if _, err := bt.Insert(chunk); err != nil {
				t.Fatal(err)
			}
			baseTuples, err := data.ReadAll(base)
			if err != nil {
				t.Fatal(err)
			}
			chunkTuples, err := data.ReadAll(chunk)
			if err != nil {
				t.Fatal(err)
			}
			union := data.NewMemSource(base.Schema(), append(baseTuples, chunkTuples...))
			ref := buildRef(t, union, inmem.Config{
				Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
			})
			requireEqual(t, "after insert", bt.Tree(), ref)
			if _, err := bt.Delete(chunk); err != nil {
				t.Fatal(err)
			}
			refBase := buildRef(t, base, inmem.Config{
				Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
			})
			requireEqual(t, "after delete", bt.Tree(), refBase)
		})
	}
}
