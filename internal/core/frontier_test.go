package core

import (
	"math/rand"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// countSpans counts the spans called name in the tracer's span trees.
func countSpans(tr *obs.Tracer, name string) int {
	var n int
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name() == name {
			n++
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	return n
}

// TestFrontierPathFollowsSpill pins which path a frontier or failed
// node's family takes, on a grow-fig4-shaped build at test scale (F1 with
// 5% noise, sample 2% and subsample 0.5% of the input, stop threshold 15%
// of it): a resident family is grown with one in-memory build, so the
// whole build runs a single bootstrap; a family that spilled out of
// MemBudgetTuples gets a recursive BOAT invocation, and each one runs its
// own bootstrap. Both trees equal the reference, and both builds return
// their budget and remove their spill files, with leaf completion (and
// the recursions it starts) sequential or on two workers.
func TestFrontierPathFollowsSpill(t *testing.T) {
	const n, threshold = 25000, 3750
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, n, 4)
	ref := buildRef(t, src, inmem.Config{
		Method: split.NewGini(), StopThreshold: threshold, StopAtThreshold: true,
	})
	for _, tc := range []struct {
		name        string
		budget      int64
		parallelism int
		recursive   bool
	}{
		{"resident", 0, 1, false},
		{"resident-P2", 0, 2, false},
		{"spilled", 2000, 1, true},
		{"spilled-P2", 2000, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			budget := data.NewMemBudget(tc.budget)
			tracer := obs.NewTracer(nil)
			bt, err := Build(src, Config{
				Method: split.NewGini(), SampleSize: n / 50, SubsampleSize: n / 200,
				StopThreshold: threshold, StopAtThreshold: true, Seed: 1,
				Parallelism: tc.parallelism, Budget: budget, TempDir: dir, Trace: tracer,
			})
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, tc.name, bt.Tree(), ref)
			bs := bt.BuildStats()
			boots := countSpans(tracer, "bootstrap")
			if tc.recursive {
				if bs.FrontierRebuilds == 0 || boots <= 1 {
					t.Errorf("spilled families: FrontierRebuilds = %d, bootstrap spans = %d; want a recursive invocation",
						bs.FrontierRebuilds, boots)
				}
			} else if bs.FrontierRebuilds != 0 || bs.InMemoryLeaves == 0 || boots != 1 {
				t.Errorf("resident families: FrontierRebuilds = %d, InMemoryLeaves = %d, bootstrap spans = %d; want 0, > 0, 1",
					bs.FrontierRebuilds, bs.InMemoryLeaves, boots)
			}
			if got := int64(boots - 1); got != bs.FrontierRebuilds {
				t.Errorf("%d bootstrap spans beyond the build's own, FrontierRebuilds = %d", got, bs.FrontierRebuilds)
			}
			if err := bt.Close(); err != nil {
				t.Fatal(err)
			}
			if used := budget.Used(); used != 0 {
				t.Errorf("budget holds %d tuples after Close", used)
			}
			requireNoTempsUnder(t, dir)
		})
	}
}

// noiseSource draws n tuples whose class ignores every attribute, so the
// bootstrap trees of any family of it disagree at the family's root.
func noiseSource(t *testing.T, n int, seed int64) data.Source {
	t.Helper()
	schema := data.MustSchema([]data.Attribute{
		{Name: "a", Kind: data.Numeric},
		{Name: "b", Kind: data.Numeric},
		{Name: "c", Kind: data.Numeric},
	}, 2)
	rng := rand.New(rand.NewSource(seed))
	tuples := make([]data.Tuple, n)
	for i := range tuples {
		tuples[i] = data.Tuple{
			Values: []float64{float64(rng.Intn(1000)), float64(rng.Intn(1000)), float64(rng.Intn(1000))},
			Class:  rng.Intn(2),
		}
	}
	return data.NewMemSource(schema, tuples)
}

// TestSpilledFatLeafBackOff pins the promotion back-off, which only
// spilled fat leaves reach: a spilled family whose recursive invocation
// ends as a stored-family leaf (the bootstrap trees disagree at its root)
// is refit in memory, without another bootstrap, until it outgrows the
// failed attempt by a quarter. Inside the back-off the leaf is fit from
// a copy of its spilled bag and stays a spilled bag. The tree stays exact
// either way, and Close returns the budget and removes every spill file.
func TestSpilledFatLeafBackOff(t *testing.T) {
	const n, threshold = 3000, 500
	base := noiseSource(t, n, 1)
	small := noiseSource(t, n/10, 2) // +10%: inside the back-off
	big := noiseSource(t, n/5, 3)    // +30% in all: past it
	dir := t.TempDir()
	budget := data.NewMemBudget(200)
	tracer := obs.NewTracer(nil)
	cfg := Config{
		Method: split.NewGini(), SampleSize: 1000, StopThreshold: threshold, StopAtThreshold: true,
		Seed: 5, Parallelism: 1, Budget: budget, TempDir: dir, Trace: tracer,
	}
	bt, err := Build(base, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	if !bt.root.isLeaf() || bt.root.promoteAttempt != n {
		t.Fatalf("root: leaf %v, promoteAttempt %d; want a fat leaf that backed off at %d",
			bt.root.isLeaf(), bt.root.promoteAttempt, n)
	}
	// A spilled fat leaf kept from promotion is fit from a copy and stays
	// a spilled bag.
	spilledLeaf := func(label string) {
		t.Helper()
		if bt.root.subtree == nil || !bt.root.family.spilled() {
			t.Fatalf("%s: root fit %v, spilled bag %v; want a fit leaf holding a spilled bag",
				label, bt.root.subtree != nil, bt.root.family.spilled())
		}
		if err := bt.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	spilledLeaf("build")
	g := cfg.growConfig(0)
	all := []data.Source{base}
	check := func(label string) {
		t.Helper()
		var tuples []data.Tuple
		for _, s := range all {
			ts, err := data.ReadAll(s)
			if err != nil {
				t.Fatal(err)
			}
			tuples = append(tuples, ts...)
		}
		requireEqual(t, label, bt.Tree(), inmem.Build(base.Schema(), tuples, g))
	}
	check("build")

	boots := countSpans(tracer, "bootstrap")
	upd, err := bt.Insert(small)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, small)
	check("insert inside the back-off")
	spilledLeaf("insert inside the back-off")
	if got := countSpans(tracer, "bootstrap"); got != boots || upd.RebuiltSubtrees != 0 || upd.RefittedLeaves != 1 {
		t.Fatalf("insert inside the back-off: %d new bootstrap spans, RebuiltSubtrees %d, RefittedLeaves %d; want 0, 0, 1",
			got-boots, upd.RebuiltSubtrees, upd.RefittedLeaves)
	}

	boots = countSpans(tracer, "bootstrap")
	upd, err = bt.Insert(big)
	if err != nil {
		t.Fatal(err)
	}
	all = append(all, big)
	check("insert past the back-off")
	if got := countSpans(tracer, "bootstrap"); got == boots || upd.RebuiltSubtrees == 0 {
		t.Fatalf("insert past the back-off: %d new bootstrap spans, RebuiltSubtrees %d; want a promotion",
			got-boots, upd.RebuiltSubtrees)
	}
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	bt.Close()
	if used := budget.Used(); used != 0 {
		t.Errorf("budget holds %d tuples after Close, want 0", used)
	}
	requireNoTempsUnder(t, dir)
}
