package experiments

import (
	"slices"
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
)

// tiny returns a configuration small enough for unit tests; the runners
// themselves verify tree equality across algorithms, so these tests are
// end-to-end checks of the whole reproduction pipeline.
func tiny(t *testing.T) Config {
	t.Helper()
	return Config{Unit: 4000, MaxUnits: 4, Seed: 1, Dir: t.TempDir()}
}

func checkRows(t *testing.T, rows []Row, wantAlgos []string, wantPoints int) {
	t.Helper()
	algos := map[string]int{}
	for _, r := range rows {
		algos[r.Algo]++
		if r.Seconds < 0 {
			t.Errorf("negative time in %+v", r)
		}
	}
	for _, a := range wantAlgos {
		if algos[a] != wantPoints {
			t.Errorf("algo %s has %d points, want %d (all: %v)", a, algos[a], wantPoints, algos)
		}
	}
}

func TestRunScalability(t *testing.T) {
	rows, err := RunScalability("fig4", 1, tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []string{"BOAT", "RF-Hybrid", "RF-Vertical"}, 2) // sizes 2 and 4
	// BOAT must scan the database exactly twice at every point.
	for _, r := range rows {
		if r.Algo == "BOAT" && r.Scans != 2 {
			t.Errorf("BOAT made %d scans at x=%g", r.Scans, r.X)
		}
	}
}

func TestRunScalabilityWithFiles(t *testing.T) {
	c := tiny(t)
	c.UseFiles = true
	c.MaxUnits = 2
	rows, err := RunScalability("fig4", 6, c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []string{"BOAT", "RF-Hybrid", "RF-Vertical"}, 1)
}

func TestRunNoise(t *testing.T) {
	c := tiny(t)
	rows, err := RunNoise("fig7", 1, c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []string{"BOAT", "RF-Hybrid", "RF-Vertical"}, 5) // 2..10%
}

func TestRunExtraAttrs(t *testing.T) {
	c := tiny(t)
	rows, err := RunExtraAttrs("fig10", 1, c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []string{"BOAT", "RF-Hybrid", "RF-Vertical"}, 4) // 0,2,4,6
	// Tuples read should grow with record width for the same scan counts
	// is not guaranteed (tuple counts, not bytes); but BOAT stays at 2
	// scans regardless of the extra attributes.
	for _, r := range rows {
		if r.Algo == "BOAT" && r.Scans != 2 {
			t.Errorf("BOAT scans = %d with extra attrs x=%g", r.Scans, r.X)
		}
	}
}

func TestRunInstability(t *testing.T) {
	res, err := RunInstability(tiny(t))
	if err != nil {
		t.Fatal(err)
	}
	if !res.BOATExact {
		t.Fatal("BOAT lost exactness on the instability dataset")
	}
	if res.RootSurvived {
		// When the root survives, the split points must be bimodal: both
		// minima represented, or the interval spans them.
		if res.NearLow == 0 || res.NearHigh == 0 {
			t.Logf("all bootstrap points on one side (low=%d high=%d): also a legal outcome",
				res.NearLow, res.NearHigh)
		}
		if res.NearLow > 0 && res.NearHigh > 0 && res.IntervalHi-res.IntervalLo < 30 {
			t.Errorf("bimodal points but narrow interval [%v,%v]", res.IntervalLo, res.IntervalHi)
		}
	}
	t.Logf("instability: %+v", res)
}

// checkRebuildInput pins the rebuild curves of Figures 13 and 14 to the
// update curve's input: the rebuild at X builds on exactly the arrival
// units 0..X-1 the update curve inserted (the original dataset counted as
// size zero), so its tree is the in-memory build on them.
func checkRebuildInput(t *testing.T, c Config, arrive gen.Config, rows []Row) {
	t.Helper()
	c = c.normalized()
	for _, r := range rows {
		if r.Algo != "Rebuild-BOAT" && r.Algo != "Rebuild-RF-Hybrid" {
			continue
		}
		src, cleanup, err := c.arrivals(arrive, 0, int(r.X), "check")
		if err != nil {
			t.Fatal(err)
		}
		tuples, err := data.ReadAll(src)
		cleanup()
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(tuples)) != int64(r.X)*c.Unit {
			t.Fatalf("arrivals up to %g hold %d tuples, want %d", r.X, len(tuples), int64(r.X)*c.Unit)
		}
		if want := inmem.Build(src.Schema(), tuples, c.grow()).NumNodes(); r.Nodes != want {
			t.Errorf("%s at %g: %d nodes, the in-memory build on the inserted tuples has %d",
				r.Algo, r.X, r.Nodes, want)
		}
	}
}

func TestRunDynamicStable(t *testing.T) {
	c := tiny(t)
	rows, err := RunDynamic("fig13", DynamicStable, c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []string{"BOAT-Update", "Rebuild-BOAT", "Rebuild-RF-Hybrid"}, 2)
	checkRebuildInput(t, c, gen.Config{Function: 1, Noise: 0.10}, rows)
	// Cumulative times must be non-decreasing per algorithm.
	last := map[string]float64{}
	for _, r := range rows {
		if r.Seconds < last[r.Algo] {
			t.Errorf("%s cumulative time decreased at x=%g", r.Algo, r.X)
		}
		last[r.Algo] = r.Seconds
	}
}

func TestRunDynamicChange(t *testing.T) {
	c := tiny(t)
	rows, err := RunDynamic("fig14", DynamicChange, c)
	if err != nil {
		t.Fatal(err)
	}
	checkRows(t, rows, []string{"BOAT-Update", "Rebuild-BOAT", "Rebuild-RF-Hybrid"}, 2)
	checkRebuildInput(t, c, gen.Config{Function: 1, Noise: 0.10, Shifted: true}, rows)
}

// TestRunDynamicChunkSize: Figure 15's two curves insert the same tuples
// in chunks of one and two units, so at every X both reach their trees
// are equal (RunDynamic fails otherwise, and their node counts must
// agree here), and a 2-unit chunk is the two 1-unit chunks it spans.
func TestRunDynamicChunkSize(t *testing.T) {
	c := tiny(t)
	rows, err := RunDynamic("fig15", DynamicChunkSize, c)
	if err != nil {
		t.Fatal(err)
	}
	nodes := map[string]map[float64]int{}
	for _, r := range rows {
		if nodes[r.Algo] == nil {
			nodes[r.Algo] = map[float64]int{}
		}
		nodes[r.Algo][r.X] = r.Nodes
	}
	if len(nodes["Chunk-1"]) != 4 || len(nodes["Chunk-2"]) != 2 {
		t.Fatalf("chunk curves have %d/%d points, want 4/2", len(nodes["Chunk-1"]), len(nodes["Chunk-2"]))
	}
	for x, n2 := range nodes["Chunk-2"] {
		if n1, ok := nodes["Chunk-1"][x]; !ok || n1 != n2 {
			t.Errorf("at %g: Chunk-1 tree has %d nodes (present %v), Chunk-2 %d", x, n1, ok, n2)
		}
	}

	c = c.normalized()
	read := func(from, to int) []data.Tuple {
		src, cleanup, err := c.arrivals(gen.Config{Function: 1, Noise: 0.10}, from, to, "check")
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		tuples, err := data.ReadAll(src)
		if err != nil {
			t.Fatal(err)
		}
		return tuples
	}
	two, ones := read(2, 4), append(read(2, 3), read(3, 4)...)
	if len(two) != len(ones) {
		t.Fatalf("2-unit chunk holds %d tuples, its 1-unit chunks %d", len(two), len(ones))
	}
	for i := range two {
		if two[i].Class != ones[i].Class || !slices.Equal(two[i].Values, ones[i].Values) {
			t.Fatalf("tuple %d of the 2-unit chunk differs from the 1-unit chunks': %v vs %v", i, two[i], ones[i])
		}
	}
}

func TestFormatRows(t *testing.T) {
	var sb strings.Builder
	FormatRows(&sb, []Row{{
		Figure: "fig4", X: 2, XLabel: "millions", Algo: "BOAT",
		Seconds: 1.5, Scans: 2, TuplesRead: 100, Nodes: 7,
	}})
	out := sb.String()
	for _, want := range []string{"fig4", "BOAT", "millions=2", "1.500"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestDynamicKindString(t *testing.T) {
	if DynamicStable.String() != "stable" || DynamicChange.String() != "change" ||
		DynamicChunkSize.String() != "chunk-size" {
		t.Error("kind names wrong")
	}
}
