package core

import (
	"strings"
	"testing"

	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/split"
)

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name    string
		cfg     Config
		wantSub string
	}{
		{"missing method", Config{}, "Method is required"},
		{"negative widen", Config{Method: split.NewGini(), WidenFraction: -1}, "WidenFraction"},
		{"negative limits", Config{Method: split.NewGini(), MaxDepth: -1}, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.cfg.withDefaults(1000)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("err = %v, want substring %q", err, tc.wantSub)
			}
		})
	}
}

func TestConfigDefaults(t *testing.T) {
	cfg, err := Config{Method: split.NewGini()}.withDefaults(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.SampleSize != 100_000 {
		t.Errorf("SampleSize default = %d, want N/10", cfg.SampleSize)
	}
	if cfg.BootstrapTrees != 20 {
		t.Errorf("BootstrapTrees default = %d, want 20 (the paper's b)", cfg.BootstrapTrees)
	}
	if cfg.SubsampleSize != 25_000 {
		t.Errorf("SubsampleSize default = %d, want SampleSize/4", cfg.SubsampleSize)
	}
	// Sample size is capped at the paper's 200k.
	cfg, _ = Config{Method: split.NewGini()}.withDefaults(100_000_000)
	if cfg.SampleSize != 200_000 {
		t.Errorf("SampleSize cap = %d, want 200000", cfg.SampleSize)
	}
	// ...and floored at 1000 for tiny inputs.
	cfg, _ = Config{Method: split.NewGini()}.withDefaults(50)
	if cfg.SampleSize != 1000 {
		t.Errorf("SampleSize floor = %d, want 1000", cfg.SampleSize)
	}
}

func TestBuildRejectsUnverifiableMethod(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 100, 1)
	_, err := Build(src, Config{Method: opaqueMethod{}})
	if err == nil || !strings.Contains(err.Error(), "cannot verify") {
		t.Errorf("err = %v", err)
	}
}

// opaqueMethod is neither impurity-based nor moment-based: BOAT has no way
// to verify its coarse criteria and must refuse it.
type opaqueMethod struct{}

func (opaqueMethod) Name() string                           { return "opaque" }
func (opaqueMethod) BestSplit(*split.NodeStats) split.Split { return split.NoSplit() }

func TestBuildTinyDatasets(t *testing.T) {
	for _, n := range []int64{0, 1, 2, 10} {
		src := gen.MustSource(gen.Config{Function: 1}, n, 1)
		bt, err := Build(src, Config{Method: split.NewGini(), Seed: 1})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		tr := bt.Tree()
		if tr == nil || tr.Root == nil {
			t.Fatalf("n=%d: nil tree", n)
		}
		if err := bt.CheckConsistency(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		bt.Close()
	}
}

func TestBuildStatsPopulated(t *testing.T) {
	// Function 2 has a stable root concept (age bands), so the sampling
	// phase reliably produces coarse nodes.
	src := gen.MustSource(gen.Config{Function: 2, Noise: 0.05}, 8000, 2)
	bt, err := Build(src, Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 50, SampleSize: 2000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	st := bt.BuildStats()
	if st.TuplesSeen != 8000 {
		t.Errorf("TuplesSeen = %d", st.TuplesSeen)
	}
	if st.SampleSize != 2000 {
		t.Errorf("SampleSize = %d", st.SampleSize)
	}
	if st.CoarseNodes == 0 {
		t.Errorf("CoarseNodes = 0 on a clean concept")
	}
	if bt.Schema() == nil {
		t.Error("nil schema")
	}
}

func TestDoubleClose(t *testing.T) {
	src := gen.MustSource(gen.Config{Function: 1}, 500, 1)
	bt, err := Build(src, Config{Method: split.NewGini(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := bt.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}
