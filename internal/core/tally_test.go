package core

import (
	"fmt"
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// tallyBuild is the spilled case of TestFrontierPathFollowsSpill: a
// 25,000-tuple F1 build in stop mode whose spilled frontier families get
// recursive invocations, and whose root fails verification once.
func tallyBuild(t *testing.T, p int, reg *obs.Registry, tracer *obs.Tracer) *Tree {
	t.Helper()
	const n = 25000
	bt, err := Build(gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 4), Config{
		Method: split.NewGini(), SampleSize: n / 50, SubsampleSize: n / 200,
		StopThreshold: 3750, StopAtThreshold: true, Seed: 1, Parallelism: p,
		MemBudgetTuples: 2000, TempDir: t.TempDir(), Metrics: reg, Trace: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs := bt.BuildStats(); bs.FrontierRebuilds == 0 {
		t.Fatalf("the build ran no recursive invocation: %+v", bs)
	}
	return bt
}

// shiftedChunk is the i-th insert of tallyBuild's model: 2,500 tuples of
// the shifted F1 distribution (Figure 14). The third one fails the root's
// verification, and the rebuild promotes spilled families.
func shiftedChunk(i int) data.Source {
	return gen.MustSource(gen.Config{Function: 1, Shifted: true, Noise: 0.05}, 2500, int64(10+i))
}

// TestBuildStatsFixedAfterUpdates: BuildStats reports the Build and
// nothing after it. Inserts that fail verification and promote spilled
// families run cleanup scans, bootstraps and rebuilds of their own; they
// report them in UpdateStats and leave BuildStats as the Build left it.
func TestBuildStatsFixedAfterUpdates(t *testing.T) {
	bt := tallyBuild(t, 1, nil, nil)
	defer bt.Close()
	want := bt.BuildStats()
	var failed UpdateStats
	for i := 0; i < 4; i++ {
		upd, err := bt.Insert(shiftedChunk(i))
		if err != nil {
			t.Fatal(err)
		}
		if upd.RebuiltSubtrees > 0 {
			failed = upd
		}
		if got := bt.BuildStats(); got != want {
			t.Fatalf("insert %d changed BuildStats\nfrom %+v\n  to %+v", i, want, got)
		}
	}
	fails := failed.FailNoCandidate + failed.FailBetterCat + failed.FailBound + failed.FailTie + failed.FailMoment
	if fails == 0 || failed.RebuildTuples == 0 {
		t.Fatalf("no insert failed verification and rebuilt: %+v", failed)
	}
}

// TestRebuildSpansMatchRebuildTuples: every rebuild span counts its family
// once in RebuildTuples, those leaf completion opens for the recursive
// invocations it starts (frontier families in a Build, promotions in an
// update) included. Over each operation the tuples attributes of its
// rebuild spans sum to the operation's RebuildTuples.
func TestRebuildSpansMatchRebuildTuples(t *testing.T) {
	tracer := obs.NewTracer(nil)
	bt := tallyBuild(t, 1, nil, tracer)
	defer bt.Close()
	stats := []int64{bt.BuildStats().RebuildTuples}
	for i := 0; i < 4; i++ {
		upd, err := bt.Insert(shiftedChunk(i))
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, upd.RebuildTuples)
	}
	roots := tracer.Roots()
	if len(roots) != len(stats) {
		t.Fatalf("%d root spans for %d operations", len(roots), len(stats))
	}
	for i, root := range roots {
		var sum int64
		var fromLeaves int
		var walk func(s *obs.Span, parent string)
		walk = func(s *obs.Span, parent string) {
			if s.Name() == "rebuild" {
				for _, a := range s.Attrs() {
					if a.Key == "tuples" {
						sum += a.Value.(int64)
					}
				}
				if parent == "leaf-completion" {
					fromLeaves++
				}
			}
			for _, c := range s.Children() {
				walk(c, s.Name())
			}
		}
		walk(root, "")
		op := "build"
		if i > 0 {
			op = fmt.Sprintf("insert %d", i-1)
		}
		if sum != stats[i] {
			t.Errorf("%s: rebuild spans carry %d tuples, RebuildTuples = %d", op, sum, stats[i])
		}
		// The build's frontier recursions and the failing insert's
		// promotions start at leaf completion.
		if (op == "build" || op == "insert 2") && fromLeaves == 0 {
			t.Errorf("%s: leaf completion opened no rebuild span", op)
		}
	}
}

// registryDelta returns each counter's change between two snapshots.
func registryDelta(before, after obs.MetricsSnapshot) map[string]int64 {
	d := make(map[string]int64, len(after.Counters))
	for name, v := range after.Counters {
		d[name] = v - before.Counters[name]
	}
	return d
}

// requireRegistryMatches compares each registry counter's change over
// one operation with the statistic the operation reports for it, and
// requires the verification failures by cause to sum to the misses.
func requireRegistryMatches(t *testing.T, op string, d map[string]int64, want map[string]int64) {
	t.Helper()
	for name, w := range want {
		if d[name] != w {
			t.Errorf("%s: %s changed by %d, its statistic is %d", op, name, d[name], w)
		}
	}
	var fails int64
	for name, v := range d {
		if strings.HasPrefix(name, "verify.fail.") {
			fails += v
		}
	}
	if fails != d["verify.ci.miss"] {
		t.Errorf("%s: verify.fail.* sum to %d, verify.ci.miss changed by %d", op, fails, d["verify.ci.miss"])
	}
}

// buildCounters maps the registry counters a Build moves to what its
// BuildStats say they must move by.
func buildCounters(bs BuildStats) map[string]int64 {
	return map[string]int64{
		"verify.ci.miss":           bs.FailedNodes,
		"verify.fail.no_candidate": bs.FailNoCandidate,
		"verify.fail.better_cat":   bs.FailBetterCat,
		"verify.fail.bound":        bs.FailBound,
		"verify.fail.tie":          bs.FailTie,
		"verify.fail.moment":       bs.FailMoment,
		"scan.tuples":              bs.TuplesSeen,
		"scan.shard.0.tuples":      bs.TuplesSeen,
		"scan.stuck.tuples":        bs.StuckTuples,
		"bootstrap.coarse_nodes":   int64(bs.CoarseNodes),
		"bootstrap.disagreements":  int64(bs.Disagreements),
		"rebuild.frontier":         bs.FrontierRebuilds,
		"rebuild.spill":            bs.SpillRebuilds,
		"rebuild.tuples":           bs.RebuildTuples,
		"leaf.inmemory":            bs.InMemoryLeaves,
		"leaf.refitted":            0,
		"update.migrated_tuples":   0,
		"update.tuples":            0,
	}
}

// updateCounters maps the registry counters an Insert or Delete moves to
// what its UpdateStats say they must move by.
func updateCounters(u UpdateStats) map[string]int64 {
	return map[string]int64{
		"verify.fail.no_candidate": u.FailNoCandidate,
		"verify.fail.better_cat":   u.FailBetterCat,
		"verify.fail.bound":        u.FailBound,
		"verify.fail.tie":          u.FailTie,
		"verify.fail.moment":       u.FailMoment,
		"rebuild.tuples":           u.RebuildTuples,
		"leaf.inmemory":            0,
		"leaf.refitted":            u.RefittedLeaves,
		"update.migrated_tuples":   u.MigratedTuples,
		"update.tuples":            u.TuplesSeen,
		"update.chunks":            u.Chunks,
	}
}

// TestRegistryMatchesStats: each event is counted once, into the
// operation's tally and the registry counter of the same name, so over
// every Build, Insert and Delete each counter changes by exactly the
// statistic the operation reports (update.tuples and update.chunks by
// what the router streamed), and RebuiltSubtrees is the misses, the spill
// rebuilds and at most rebuild.frontier promotions. It runs on the
// budgeted F1 model with shifted inserts (misses, recursions, promotions,
// refits) and on the migration model of TestMigrationBothDirections, at
// Parallelism 1 and 2.
func TestRegistryMatchesStats(t *testing.T) {
	for _, p := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			var reg *obs.Registry
			// delta runs one operation and returns each counter's change.
			delta := func(op string, do func() error) map[string]int64 {
				t.Helper()
				before := reg.Snapshot()
				if err := do(); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				return registryDelta(before, reg.Snapshot())
			}
			build := func(op string, do func() (*Tree, error)) *Tree {
				t.Helper()
				var bt *Tree
				d := delta(op, func() (err error) { bt, err = do(); return err })
				requireRegistryMatches(t, op, d, buildCounters(bt.BuildStats()))
				return bt
			}
			var total UpdateStats
			update := func(op string, apply func() (UpdateStats, error)) {
				t.Helper()
				var u UpdateStats
				d := delta(op, func() (err error) { u, err = apply(); return err })
				requireRegistryMatches(t, op, d, updateCounters(u))
				if promoted := u.RebuiltSubtrees - d["verify.ci.miss"] - d["rebuild.spill"]; promoted < 0 || promoted > d["rebuild.frontier"] {
					t.Errorf("%s: RebuiltSubtrees %d is not the %d misses, %d spill rebuilds and at most %d promotions",
						op, u.RebuiltSubtrees, d["verify.ci.miss"], d["rebuild.spill"], d["rebuild.frontier"])
				}
				total.RebuiltSubtrees += u.RebuiltSubtrees
				total.MigratedTuples += u.MigratedTuples
				total.RefittedLeaves += u.RefittedLeaves
			}

			reg = obs.NewRegistry()
			bt := build("build", func() (*Tree, error) { return tallyBuild(t, p, reg, nil), nil })
			defer bt.Close()
			for i := 0; i < 4; i++ {
				update(fmt.Sprintf("insert %d", i), func() (UpdateStats, error) { return bt.Insert(shiftedChunk(i)) })
			}
			update("delete", func() (UpdateStats, error) { return bt.Delete(shiftedChunk(2)) })

			reg = obs.NewRegistry()
			schema := migSchema()
			mt := build("migration build", func() (*Tree, error) {
				return Build(data.NewMemSource(schema, migTuples(20000, 1)), Config{
					Method: split.NewGini(), MaxDepth: 3, MinSplit: 50,
					SampleSize: 2000, Seed: 3, Parallelism: p, Metrics: reg,
				})
			})
			defer mt.Close()
			// Tuples halfway between the root's split point and the top of
			// its interval move the split point there and back.
			v := mt.root.routedThr + (mt.root.coarse.hi-mt.root.routedThr)/2
			chunk := make([]data.Tuple, 400)
			for i := range chunk {
				chunk[i] = data.Tuple{Values: []float64{v, float64(i) / 400}, Class: 0}
			}
			update("migrating insert", func() (UpdateStats, error) {
				return mt.Insert(data.NewMemSource(schema, data.CloneTuples(chunk)))
			})
			update("migrating delete", func() (UpdateStats, error) {
				return mt.Delete(data.NewMemSource(schema, data.CloneTuples(chunk)))
			})

			if total.RebuiltSubtrees == 0 || total.MigratedTuples == 0 || total.RefittedLeaves == 0 {
				t.Errorf("the updates did not rebuild, migrate and refit: %+v", total)
			}
		})
	}
}

// TestPushedSetsStayResident: a node's first push after the cleanup scan
// hands its stuck set S_n over to the empty pushed set instead of copying
// it, so a budget that holds D once never spills a pushed set.
func TestPushedSetsStayResident(t *testing.T) {
	const n = 20000
	bt, err := Build(gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 4), Config{
		Method: split.NewGini(), MaxDepth: 8, MinSplit: 50, SampleSize: 2000, Seed: 1,
		MemBudgetTuples: n, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	var pushed int
	var walk func(n *bnode)
	walk = func(n *bnode) {
		if n.isLeaf() {
			return
		}
		if n.pushed != nil && n.pushed.Len() > 0 {
			pushed++
			if n.pushed.Spilled() {
				t.Errorf("the pushed set of a depth-%d node spilled (%d tuples)", n.depth, n.pushed.Len())
			}
		}
		walk(n.left)
		walk(n.right)
	}
	walk(bt.root)
	if pushed == 0 {
		t.Fatal("no node pushed a stuck set")
	}
}
