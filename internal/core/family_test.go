package core

import (
	"fmt"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/split"
)

// presortedLeaves returns the live-row count of every leaf in the subtree
// that holds a presorted family.
func presortedLeaves(n *bnode, out map[*bnode]int) map[*bnode]int {
	if out == nil {
		out = make(map[*bnode]int)
	}
	switch {
	case n == nil:
	case n.isLeaf():
		if f := n.family.fam; f != nil {
			out[n] = f.Len()
		}
	default:
		presortedLeaves(n.left, out)
		presortedLeaves(n.right, out)
	}
	return out
}

// reachable returns every node of the subtree.
func reachable(n *bnode, out map[*bnode]bool) map[*bnode]bool {
	if out == nil {
		out = make(map[*bnode]bool)
	}
	if n != nil {
		out[n] = true
		reachable(n.left, out)
		reachable(n.right, out)
	}
	return out
}

// checkRemovalBacklog fails when a leaf bag, presorted family or stuck set
// of the subtree holds more pending removals than half its live rows.
func checkRemovalBacklog(n *bnode) error {
	if n == nil {
		return nil
	}
	var leafBag *data.TupleBag
	if n.isLeaf() {
		if f := n.family.fam; f != nil && 2*f.Dead() > f.Len() {
			return fmt.Errorf("presorted family at depth %d: %d dead rows, %d live", n.depth, f.Dead(), f.Len())
		}
		leafBag = n.family.bag
	}
	for name, b := range map[string]*data.TupleBag{"leaf bag": leafBag, "pending set": n.pending, "pushed set": n.pushed} {
		if b != nil && 2*b.PendingRemovals() > b.Len() {
			return fmt.Errorf("%s at depth %d: %d pending removals, %d live", name, n.depth, b.PendingRemovals(), b.Len())
		}
	}
	if err := checkRemovalBacklog(n.left); err != nil {
		return err
	}
	return checkRemovalBacklog(n.right)
}

// TestUpdateCompactsRemovals: a sliding window over fresh data must not
// let removals pile up where no refit compacts them — in stop-mode leaves
// within the threshold, which skip the refit, and in pushed stuck sets.
// After every update, no leaf bag, presorted family or stuck set may hold
// more pending removals than half its live rows, and the tree must equal
// the reference on the window.
func TestUpdateCompactsRemovals(t *testing.T) {
	read := func(seed int64, n int64) []data.Tuple {
		tuples, err := data.ReadAll(gen.MustSource(gen.Config{Function: 3}, n, seed))
		if err != nil {
			t.Fatal(err)
		}
		return tuples
	}
	base := read(1, 60_000)
	schema := gen.Schema(0)
	cfg := Config{
		Method: split.NewGini(), SampleSize: 20_000,
		StopThreshold: 3000, StopAtThreshold: true, Seed: 1,
	}
	g := inmem.Config{Method: cfg.Method, StopThreshold: cfg.StopThreshold, StopAtThreshold: true}
	bt, err := Build(data.NewMemSource(schema, base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	window := data.CloneTuples(base)
	var chunks [][]data.Tuple
	check := func(op string) {
		t.Helper()
		if err := checkRemovalBacklog(bt.root); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if err := bt.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
	}
	for round := 0; round < 16; round++ {
		chunk := read(100+int64(round), 3000)
		if _, err := bt.Insert(data.NewMemSource(schema, chunk)); err != nil {
			t.Fatalf("round %d insert: %v", round, err)
		}
		chunks = append(chunks, chunk)
		window = append(window, chunk...)
		check(fmt.Sprintf("round %d insert", round))
		if round < 3 {
			continue
		}
		expired := chunks[round-3]
		if _, err := bt.Delete(data.NewMemSource(schema, expired)); err != nil {
			t.Fatalf("round %d delete: %v", round, err)
		}
		window = subtract(window, expired)
		check(fmt.Sprintf("round %d delete", round))
		if round%4 == 3 {
			requireEqual(t, fmt.Sprintf("round %d", round), bt.Tree(),
				inmem.Build(schema, data.CloneTuples(window), g))
		}
	}
	requireEqual(t, "final window", bt.Tree(), inmem.Build(schema, data.CloneTuples(window), g))
}

// TestFamilyBudgetFallback: in a stop-mode stream, the first update moves
// the fat leaves into presorted families; a later insert the memory
// budget cannot cover sends such a leaf back into a bag, which spills
// (and, above the threshold, is then promoted by a recursive BOAT
// invocation). The tree must stay exact throughout, and Close must
// return the whole budget and leave no temp file behind.
func TestFamilyBudgetFallback(t *testing.T) {
	fcfg := gen.Config{Function: 1, Noise: 0.05}
	read := func(seed int64, n int64) []data.Tuple {
		tuples, err := data.ReadAll(gen.MustSource(fcfg, n, seed))
		if err != nil {
			t.Fatal(err)
		}
		return tuples
	}
	const baseN, chunkN = 20_000, 2000
	base := read(5, baseN)
	chunks := [][]data.Tuple{read(6, chunkN), read(7, chunkN), read(8, chunkN)}
	schema := gen.Schema(0)
	dir := t.TempDir()
	budget := data.NewMemBudget(baseN + chunkN + chunkN/2)
	stats := &iostats.Stats{}
	cfg := Config{
		Method: split.NewGini(), SampleSize: 8000, StopThreshold: 5000, StopAtThreshold: true,
		Seed: 5, Budget: budget, TempDir: dir, Stats: stats, Parallelism: 2,
	}
	g := inmem.Config{Method: cfg.Method, StopThreshold: cfg.StopThreshold, StopAtThreshold: true}
	bt, err := Build(data.NewMemSource(schema, base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Snapshot().SpillTuples != 0 {
		t.Fatalf("the build spilled %d tuples; the fat leaves must start resident", stats.Snapshot().SpillTuples)
	}
	window := data.CloneTuples(base)
	apply := func(op string, tuples []data.Tuple, w int64) {
		t.Helper()
		var err error
		if w > 0 {
			_, err = bt.Insert(data.NewMemSource(schema, tuples))
			window = append(window, tuples...)
		} else {
			_, err = bt.Delete(data.NewMemSource(schema, tuples))
			window = subtract(window, tuples)
		}
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if err := bt.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		requireEqual(t, op, bt.Tree(), inmem.Build(schema, data.CloneTuples(window), g))
	}

	apply("insert 1", chunks[0], +1)
	families := presortedLeaves(bt.root, nil)
	if len(families) == 0 {
		t.Fatal("the first update's refit kept no presorted family")
	}
	apply("insert 2", chunks[1], +1)
	if stats.Snapshot().SpillTuples == 0 {
		t.Fatal("insert 2 did not exceed the memory budget")
	}
	fellBack := 0
	nodes := reachable(bt.root, nil)
	for n := range families {
		switch {
		case !nodes[n]:
		case !n.isLeaf():
			fellBack++ // promoted: only a spilled bag is
		case n.family.spilled():
			fellBack++
		}
	}
	if fellBack == 0 {
		t.Fatal("no presorted family went back to a spilled bag when the budget ran out")
	}
	apply("delete 1", chunks[0], -1)
	apply("insert 3", chunks[2], +1)
	apply("delete 2", chunks[1], -1)

	bt.Close()
	if used := budget.Used(); used != 0 {
		t.Errorf("budget holds %d tuples after Close, want 0", used)
	}
	requireNoTempsUnder(t, dir)
}
