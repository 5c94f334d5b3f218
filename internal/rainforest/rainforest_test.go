package rainforest

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

func buildRef(t *testing.T, src data.Source, g inmem.Config) *tree.Tree {
	t.Helper()
	tuples, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	return inmem.Build(src.Schema(), tuples, g)
}

// TestExactnessMatrix: RainForest builds the identical tree to the
// reference across functions, methods and both algorithm variants.
func TestExactnessMatrix(t *testing.T) {
	methods := []split.Method{split.NewGini(), split.NewEntropy(), split.NewQuestLike()}
	for _, fn := range []int{1, 6, 7} {
		for _, m := range methods {
			for _, vertical := range []bool{false, true} {
				name := fmt.Sprintf("F%d/%s/vertical=%v", fn, m.Name(), vertical)
				t.Run(name, func(t *testing.T) {
					src := gen.MustSource(gen.Config{Function: fn, Noise: 0.05}, 8000, int64(fn))
					g := inmem.Config{Method: m, MaxDepth: 5, MinSplit: 50}
					ref := buildRef(t, src, g)
					got, _, err := Build(src, Config{
						Grow: g, AVCBufferEntries: 15000, Vertical: vertical,
					})
					if err != nil {
						t.Fatal(err)
					}
					if !got.Equal(ref) {
						t.Fatalf("differs: %s", got.Diff(ref))
					}
				})
			}
		}
	}
}

// TestScansPerLevel verifies the cost model the paper's comparison rests
// on: with an unlimited buffer, RainForest makes exactly one scan per
// grown level.
func TestScansPerLevel(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 7, Noise: 0.05}, 8000, 3)
	var st iostats.Stats
	_, bs, err := Build(src, Config{
		Grow:  inmem.Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 50},
		Stats: &st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bs.Scans != int64(bs.Levels) {
		t.Errorf("scans=%d levels=%d: want one scan per level with unlimited buffer",
			bs.Scans, bs.Levels)
	}
	if st.Scans() != bs.Scans {
		t.Errorf("iostats scans %d != build stats %d", st.Scans(), bs.Scans)
	}
}

// TestBufferPressureIncreasesScans: shrinking the AVC buffer can only
// increase the number of scans, and RF-Vertical (same buffer) does at
// least as many scans as RF-Hybrid.
func TestBufferPressureIncreasesScans(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 6, Noise: 0.05}, 10000, 5)
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 50}
	scansWith := func(buffer int64, vertical bool) (int64, int64) {
		_, bs, err := Build(src, Config{Grow: g, AVCBufferEntries: buffer, Vertical: vertical})
		if err != nil {
			t.Fatal(err)
		}
		return bs.Scans, bs.PeakAVCEntries
	}
	unlimited, _ := scansWith(0, false)
	large, _ := scansWith(50000, false)
	small, peakSmall := scansWith(8000, false)
	if large < unlimited || small < large {
		t.Errorf("scans not monotone under buffer pressure: %d / %d / %d", unlimited, large, small)
	}
	if small == unlimited {
		t.Errorf("buffer pressure had no effect (scans %d)", small)
	}
	vertical, peakVert := scansWith(8000, true)
	if vertical < small {
		t.Errorf("RF-Vertical scans %d < RF-Hybrid %d at the same buffer", vertical, small)
	}
	if peakVert > peakSmall {
		t.Errorf("RF-Vertical peak AVC %d > RF-Hybrid %d: vertical should bound memory",
			peakVert, peakSmall)
	}
	t.Logf("scans: unlimited=%d large=%d small=%d vertical=%d", unlimited, large, small, vertical)
}

// TestStopModeMatchesReference: the performance-experiment methodology.
func TestStopModeMatchesReference(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 12000, 7)
	g := inmem.Config{Method: split.NewGini(), StopThreshold: 1500, StopAtThreshold: true}
	ref := buildRef(t, src, g)
	for _, vertical := range []bool{false, true} {
		got, bs, err := Build(src, Config{Grow: g, AVCBufferEntries: 10000, Vertical: vertical})
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(ref) {
			t.Fatalf("vertical=%v differs: %s", vertical, got.Diff(ref))
		}
		if bs.InMemoryLeaves != 0 {
			t.Errorf("stop mode should not collect families, got %d", bs.InMemoryLeaves)
		}
	}
}

// TestSwitchOverCollectsFamilies: non-stop mode with a threshold finishes
// small families in memory and still matches the full reference tree.
func TestSwitchOverCollectsFamilies(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 2, Noise: 0.05}, 9000, 9)
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 6, MinSplit: 20}
	ref := buildRef(t, src, g)
	gt := g
	gt.StopThreshold = 2000
	got, bs, err := Build(src, Config{Grow: gt, AVCBufferEntries: 20000})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ref) {
		t.Fatalf("differs: %s", got.Diff(ref))
	}
	if bs.InMemoryLeaves == 0 {
		t.Error("expected switch-over families")
	}
}

// TestOversizedRootVertical: a buffer smaller than a single AVC-group
// forces the RF-Vertical attribute-group path at the root.
func TestOversizedRootVertical(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 7, Noise: 0.05}, 8000, 11)
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50}
	ref := buildRef(t, src, g)
	got, bs, err := Build(src, Config{Grow: g, AVCBufferEntries: 3000, Vertical: true})
	if err != nil {
		t.Fatal(err)
	}
	if bs.OversizedNodes == 0 {
		t.Fatal("expected oversized nodes with a 3000-entry buffer")
	}
	if !got.Equal(ref) {
		t.Fatalf("differs: %s", got.Diff(ref))
	}
	// A single attribute's AVC-set cannot be subdivided, so the peak is
	// bounded by max(buffer, largest single-attribute AVC), which here is
	// the ~8000-distinct-value salary column — but it must stay far below
	// the full AVC-group RF-Hybrid would have materialized.
	_, hybridBS, err := Build(src, Config{Grow: g, AVCBufferEntries: 3000, Vertical: false})
	if err != nil {
		t.Fatal(err)
	}
	if bs.PeakAVCEntries >= hybridBS.PeakAVCEntries {
		t.Errorf("vertical peak %d >= hybrid peak %d: no memory reduction",
			bs.PeakAVCEntries, hybridBS.PeakAVCEntries)
	}
}

// TestSpilledFamilyCollection: collection buffers respect the memory
// budget.
func TestSpilledFamilyCollection(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 6000, 13)
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 50, StopThreshold: 2000}
	var st iostats.Stats
	got, _, err := Build(src, Config{
		Grow: g, TempDir: t.TempDir(), MemBudgetTuples: 300, Stats: &st,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillTuples() == 0 {
		t.Error("expected spilled collection tuples under a 300-tuple budget")
	}
	ref := buildRef(t, src, g)
	if !got.Equal(ref) {
		t.Fatalf("differs: %s", got.Diff(ref))
	}
}

func TestBuildConfigErrors(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 100, 1)
	if _, _, err := Build(src, Config{}); err == nil {
		t.Error("missing method not rejected")
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	for _, n := range []int64{0, 1, 5} {
		src := gen.MustSource(gen.Config{Function: 1}, n, 1)
		got, _, err := Build(src, Config{Grow: inmem.Config{Method: split.NewGini()}})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if got.Root == nil {
			t.Fatalf("n=%d: nil root", n)
		}
	}
}

// TestOutOfDomainTuplesRejected: a categorical code outside [0,
// Cardinality), a NaN code and a class outside [0, ClassCount) index the
// AVC-sets and the in-memory builder's count tables out of range. RF-Hybrid,
// RF-Vertical's oversized-node scans and a switch-over family must each
// fail with an error wrapping data.ErrSchemaMismatch instead of panicking.
func TestOutOfDomainTuplesRejected(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 2000, 3)
	base, err := data.ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	schema := src.Schema()
	elevel := slices.IndexFunc(schema.Attributes, func(a data.Attribute) bool { return a.Name == "elevel" })
	bad := []struct {
		name  string
		value float64
		class int
		want  string
	}{
		{"code 70", 70, 0, `"elevel"`},
		{"NaN code", math.NaN(), 0, `"elevel"`},
		{"class 5", 1, 5, "class"},
	}
	gini := inmem.Config{Method: split.NewGini(), MaxDepth: 4}
	configs := []struct {
		name string
		cfg  Config
	}{
		{"hybrid", Config{Grow: gini}},
		{"vertical", Config{Grow: gini, AVCBufferEntries: 100, Vertical: true}},
		{"switch-over", Config{Grow: inmem.Config{Method: split.NewGini(), StopThreshold: 1 << 20}}},
	}
	for _, tc := range bad {
		tp := base[0].Clone()
		tp.Values[elevel] = tc.value
		tp.Class = tc.class
		all := append(data.CloneTuples(base), tp)
		for _, c := range configs {
			t.Run(tc.name+"/"+c.name, func(t *testing.T) {
				_, _, err := Build(data.NewMemSource(schema, all), c.cfg)
				if !errors.Is(err, data.ErrSchemaMismatch) || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("got %v, want a schema mismatch naming %s", err, tc.want)
				}
			})
		}
	}
}
