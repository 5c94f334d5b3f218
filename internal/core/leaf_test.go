package core

import (
	"math"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// leafLayouts counts the leaves of a subtree by whether they hold an
// in-memory fit (a subtree) and by the layout of their stored family.
type leafLayouts struct {
	fitFamily, fitBag, unfitFamily, unfitBag int
}

func countLeafLayouts(n *bnode, c *leafLayouts) {
	if !n.isLeaf() {
		countLeafLayouts(n.left, c)
		countLeafLayouts(n.right, c)
		return
	}
	fam := n.family.fam != nil
	switch {
	case n.subtree != nil && fam:
		c.fitFamily++
	case n.subtree != nil:
		c.fitBag++
	case fam:
		c.unfitFamily++
	default:
		c.unfitBag++
	}
}

func layoutsOf(bt *Tree) leafLayouts {
	var c leafLayouts
	countLeafLayouts(bt.root, &c)
	return c
}

func readTuples(t *testing.T, src data.Source) []data.Tuple {
	t.Helper()
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return tuples
}

// leafTallies sums the family_refits and family_conversions of every
// leaf-completion span tr recorded.
func leafTallies(tr *obs.Tracer) (refits, conversions int64) {
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		if s.Name() == "leaf-completion" {
			for _, a := range s.Attrs() {
				switch a.Key {
				case "family_refits":
					refits += a.Value.(int64)
				case "family_conversions":
					conversions += a.Value.(int64)
				}
			}
		}
		for _, c := range s.Children() {
			walk(c)
		}
	}
	for _, r := range tr.Roots() {
		walk(r)
	}
	return refits, conversions
}

// TestLeafFamilyStates pins which layout each leaf's family is held in:
// a leaf grown in memory holds a presorted family from its first fit on,
// builds included, and every other leaf a bag; and a loaded model's
// leaves are bags until the next fit. A build's leaf completion counts
// each fit as a conversion, never as a refit. TestSpilledFatLeafBackOff
// pins the third state: a spilled fat leaf that the promotion back-off
// keeps from recursion is fit from a copy and stays a bag.
func TestLeafFamilyStates(t *testing.T) {
	fcfg := gen.Config{Function: 1, Noise: 0.05}
	base := gen.MustSource(fcfg, 30_000, 1)
	schema := base.Schema()
	tuples := readTuples(t, base)

	// A stop-mode build has fat leaves and leaves within the threshold; a
	// full-completion build grows every frontier leaf in memory.
	stop := Config{Method: split.NewGini(), StopThreshold: 14_000, StopAtThreshold: true, Seed: 1, Parallelism: 2}
	full := Config{Method: split.NewEntropy(), MaxDepth: 8, Seed: 1, Parallelism: 2}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"stop", stop}, {"full", full}} {
		cfg := tc.cfg
		cfg.Trace = obs.NewTracer(nil)
		bt, err := Build(base, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer bt.Close()
		got := layoutsOf(bt)
		if got.fitFamily == 0 || got.fitBag != 0 || got.unfitFamily != 0 {
			t.Errorf("%s build: %+v; want every leaf grown in memory, and only those, to hold a family", tc.name, got)
		}
		if tc.name == "stop" && got.unfitBag == 0 {
			t.Errorf("stop build: %+v; want leaves within the threshold too", got)
		}
		if refits, conv := leafTallies(cfg.Trace); refits != 0 || conv != int64(got.fitFamily) {
			t.Errorf("%s build: family_refits %d, family_conversions %d; want 0, %d", tc.name, refits, conv, got.fitFamily)
		}
		if err := bt.CheckConsistency(); err != nil {
			t.Fatalf("%s build: %v", tc.name, err)
		}
		requireEqual(t, tc.name+" build", bt.Tree(), inmem.Build(schema, tuples, bt.cfg.growConfig(0)))
	}

	// After Save and Load every leaf is a bag; the next insert's fit moves
	// each resident fat leaf into a family.
	bt, err := Build(base, stop)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	lcfg := stop
	lcfg.Trace = obs.NewTracer(nil)
	loaded := saveLoad(t, bt, lcfg)
	defer loaded.Close()
	if got := layoutsOf(loaded); got.fitFamily != 0 || got.unfitFamily != 0 || got.fitBag == 0 {
		t.Fatalf("loaded model: %+v; want every leaf a bag, fat leaves included", got)
	}
	all := data.CloneTuples(tuples)
	insert := func(label string, src data.Source) (rebuilt bool) {
		t.Helper()
		for _, m := range []*Tree{bt, loaded} {
			upd, err := m.Insert(src)
			if err != nil {
				t.Fatal(err)
			}
			if m == loaded {
				rebuilt = upd.RebuiltSubtrees > 0
			}
		}
		if err := loaded.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		all = append(all, readTuples(t, src)...)
		ref := inmem.Build(schema, data.CloneTuples(all), stop.growConfig(0))
		requireEqual(t, "loaded model after "+label, loaded.Tree(), ref)
		requireEqual(t, "built model after "+label, bt.Tree(), ref)
		return rebuilt
	}
	insert("an insert", gen.MustSource(fcfg, 6000, 2))
	got := layoutsOf(loaded)
	if got.fitFamily == 0 || got.fitBag != 0 || got.unfitFamily != 0 {
		t.Errorf("loaded model after an insert: %+v; want every fat leaf to hold a family", got)
	}
	if refits, conv := leafTallies(lcfg.Trace); refits != 0 || conv != int64(got.fitFamily) {
		t.Errorf("loaded model after an insert: family_refits %d, family_conversions %d; want 0, %d",
			refits, conv, got.fitFamily)
	}
	// A shifted insert rebuilds the root over a gathered family, whose
	// first fit is a conversion too.
	if !insert("a shifted insert", gen.MustSource(gen.Config{Function: 1, Noise: 0.05, Shifted: true}, 10_000, 2)) {
		t.Fatal("the shifted insert rebuilt no subtree")
	}
	if refits, conv := leafTallies(lcfg.Trace); refits != 0 || conv != int64(got.fitFamily)+1 {
		t.Errorf("loaded model after a shifted insert: family_refits %d, family_conversions %d; want 0, %d",
			refits, conv, got.fitFamily+1)
	}
}

// TestSignedZeroDelete: Equal does not tell -0 from +0, so deleting
// tuples with +0 must remove the same tuples inserted with -0 from a
// leaf held as a bag (a stop-mode leaf within the threshold) — as a
// presorted family already did.
func TestSignedZeroDelete(t *testing.T) {
	fcfg := gen.Config{Function: 1}
	src := gen.MustSource(fcfg, 3000, 5)
	schema := src.Schema()
	base := readTuples(t, src)
	neg := readTuples(t, gen.MustSource(fcfg, 2000, 6))
	pos := data.CloneTuples(neg)
	attr := schema.NumericIndexes()[0]
	for i := range neg {
		neg[i].Values[attr] = math.Copysign(0, -1)
		pos[i].Values[attr] = 0
	}
	cfg := Config{Method: split.NewGini(), StopThreshold: 100_000, StopAtThreshold: true, MaxDepth: 4, Seed: 1}
	bt, err := Build(data.NewMemSource(schema, base), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	if _, err := bt.Insert(data.NewMemSource(schema, neg)); err != nil {
		t.Fatal(err)
	}
	if _, err := bt.Delete(data.NewMemSource(schema, pos)); err != nil {
		t.Fatalf("deleting with +0 the tuples inserted with -0: %v", err)
	}
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	requireEqual(t, "after delete", bt.Tree(), inmem.Build(schema, base, bt.cfg.growConfig(0)))
	loaded := saveLoad(t, bt, cfg)
	defer loaded.Close()
	requireEqual(t, "loaded", loaded.Tree(), bt.Tree())
}
