package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// obsTestConfig triggers every instrumented phase on a small dataset:
// frontier promotions (StopThreshold) exercise the rebuild spans, and the
// dataset spans multiple scan chunks so the sharded scan engages when
// Parallelism > 1.
func obsTestConfig() Config {
	return Config{
		Method: split.NewGini(), MaxDepth: 6, MinSplit: 50,
		SampleSize: 800, Seed: 7, StopThreshold: 1200,
	}
}

func obsTestSource(t *testing.T) data.Source {
	t.Helper()
	return gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 3*data.DefaultChunkRows, 107)
}

// TestBuildTraceCoverageAndIODeltas is the acceptance gate of the tracer:
// at Parallelism=1 the build root span's children must cover >= 95% of the
// build wall-clock, the root's iostats delta must equal the build's total
// I/O, and the per-span self deltas must sum exactly back to the root
// delta (sequential execution attributes every counter movement to
// exactly one span).
func TestBuildTraceCoverageAndIODeltas(t *testing.T) {
	stats := &iostats.Stats{}
	tracer := obs.NewTracer(stats)
	reg := obs.NewRegistry()
	cfg := obsTestConfig()
	cfg.Parallelism = 1
	cfg.TempDir = t.TempDir()
	cfg.Stats = stats
	cfg.Trace = tracer
	cfg.Metrics = reg
	cfg.MemBudgetTuples = 2000 // force spills so spill I/O shows in span deltas

	tree, err := Build(obsTestSource(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	roots := tracer.Roots()
	if len(roots) != 1 || roots[0].Name() != "build" {
		t.Fatalf("trace roots = %v", roots)
	}
	root := roots[0]
	if cov := root.ChildCoverage(); cov < 0.95 {
		t.Fatalf("child spans cover %.1f%% of the build wall-clock, want >= 95%%", 100*cov)
	}
	if got, want := root.IODelta(), stats.Snapshot(); got != want {
		t.Fatalf("root span IO delta = %+v, want build totals %+v", got, want)
	}

	// Self deltas over the whole span tree sum exactly to the root delta.
	var sum iostats.Snapshot
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		self := s.SelfIODelta()
		sum.Scans += self.Scans
		sum.TuplesRead += self.TuplesRead
		sum.BytesRead += self.BytesRead
		sum.SpillTuples += self.SpillTuples
		sum.SpillBytes += self.SpillBytes
		for _, c := range s.Children() {
			walk(c)
		}
	}
	walk(root)
	rootDelta := root.IODelta()
	if sum.Scans != rootDelta.Scans || sum.TuplesRead != rootDelta.TuplesRead ||
		sum.BytesRead != rootDelta.BytesRead || sum.SpillTuples != rootDelta.SpillTuples ||
		sum.SpillBytes != rootDelta.SpillBytes {
		t.Fatalf("self deltas sum to %+v, root delta is %+v", sum, rootDelta)
	}

	// Every instrumented phase must appear in the skeleton.
	skel := tracer.Skeleton()
	for _, phase := range []string{
		"build", "sampling", "bootstrap", "bootstrap-trees", "intersect",
		"skeleton", "cleanup-scan", "process", "verification", "leaf-completion",
	} {
		if !strings.Contains(skel, phase) {
			t.Fatalf("skeleton misses phase %q:\n%s", phase, skel)
		}
	}

	// The metrics registry saw the build: CI verdicts, scan totals, and
	// the sequential scan's shard-0 throughput.
	snap := reg.Snapshot()
	if snap.Counters["verify.ci.hit"]+snap.Counters["verify.ci.miss"] == 0 {
		t.Fatalf("no CI verdicts recorded: %+v", snap.Counters)
	}
	bs := tree.BuildStats()
	if got := snap.Counters["scan.tuples"]; got != bs.TuplesSeen {
		t.Fatalf("scan.tuples = %d, BuildStats.TuplesSeen = %d", got, bs.TuplesSeen)
	}
	if got := snap.Counters["scan.shard.0.tuples"]; got != bs.TuplesSeen {
		t.Fatalf("scan.shard.0.tuples = %d, want %d", got, bs.TuplesSeen)
	}
	if _, ok := snap.Gauges["scan.shard.0.tuples_per_sec"]; !ok {
		t.Fatalf("no shard throughput gauge: %+v", snap.Gauges)
	}
	if got := snap.Counters["rebuild.frontier"]; got != bs.FrontierRebuilds {
		t.Fatalf("rebuild.frontier = %d, BuildStats.FrontierRebuilds = %d", got, bs.FrontierRebuilds)
	}
}

// TestTraceSkeletonDeterministicAcrossParallelism: traces of the same
// build at different worker counts must have the identical canonical span
// structure — the diffability contract. (BOAT produces the exact same
// tree at every Parallelism, so the same phases, rebuilds and promotions
// happen; Skeleton canonicalizes their interleaving away.)
func TestTraceSkeletonDeterministicAcrossParallelism(t *testing.T) {
	src := obsTestSource(t)
	skeletons := make(map[int]string)
	for _, p := range []int{1, 8} {
		tracer := obs.NewTracer(nil)
		cfg := obsTestConfig()
		cfg.Parallelism = p
		cfg.TempDir = t.TempDir()
		cfg.Trace = tracer
		tree, err := Build(src, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tree.Close()
		skeletons[p] = tracer.Skeleton()
	}
	if skeletons[1] != skeletons[8] {
		t.Fatalf("span skeleton differs across Parallelism:\nP=1: %s\nP=8: %s",
			skeletons[1], skeletons[8])
	}
}

// TestBuildChromeTraceExport: a traced build exports valid Chrome
// trace-event JSON carrying the build phases and per-span I/O args.
func TestBuildChromeTraceExport(t *testing.T) {
	stats := &iostats.Stats{}
	tracer := obs.NewTracer(stats)
	cfg := obsTestConfig()
	cfg.Parallelism = 2
	cfg.TempDir = t.TempDir()
	cfg.Stats = stats
	cfg.Trace = tracer
	tree, err := Build(obsTestSource(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	var buf bytes.Buffer
	if err := tracer.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  int64          `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
		if ev.Args["io"] == nil {
			t.Fatalf("event %q misses io args", ev.Name)
		}
		names[ev.Name] = true
	}
	for _, phase := range []string{"build", "sampling", "cleanup-scan", "verification", "leaf-completion"} {
		if !names[phase] {
			t.Fatalf("chrome trace misses phase %q (got %v)", phase, names)
		}
	}
}

// TestUpdateTracing: Insert and Delete record their own root spans with
// the route and processing phases underneath.
func TestUpdateTracing(t *testing.T) {
	stats := &iostats.Stats{}
	tracer := obs.NewTracer(stats)
	cfg := obsTestConfig()
	cfg.Parallelism = 1
	cfg.TempDir = t.TempDir()
	cfg.Stats = stats
	cfg.Trace = tracer
	src := obsTestSource(t)
	tree, err := Build(src, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()

	chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.05}, 200, 991)
	if _, err := tree.Insert(chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := tree.Delete(chunk); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range tracer.Roots() {
		names = append(names, r.Name())
	}
	want := []string{"build", "insert", "delete"}
	if len(names) != len(want) {
		t.Fatalf("trace roots = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("trace roots = %v, want %v", names, want)
		}
	}
	for _, r := range tracer.Roots()[1:] {
		skel := r.Name()
		full := tracerSkeletonOf(r)
		if !strings.Contains(full, "route-chunk") || !strings.Contains(full, "verification") {
			t.Fatalf("%s span misses phases: %s", skel, full)
		}
	}
}

// TestLeafCompletionTraceBalance: the leaf-completion span of an update
// that refits two fat leaves at Parallelism 2 carries the slowest fit's
// and the summed fits' wall time and the number of fit tasks run by a
// worker other than the fit's owner. Each of three inserts must carry all
// three attributes with the sum at least the maximum, and over the
// inserts some task must have been shared.
func TestLeafCompletionTraceBalance(t *testing.T) {
	tracer := obs.NewTracer(nil)
	gcfg := gen.Config{Function: 1, Noise: 0.05}
	bt, err := Build(gen.MustSource(gcfg, 60_000, 41), Config{
		Method: split.NewGini(), StopThreshold: 15_000, StopAtThreshold: true,
		SampleSize: 3_000, Seed: 5, Parallelism: 2, TempDir: t.TempDir(), Trace: tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	var shared int64
	for round := 0; round < 3; round++ {
		upd, err := bt.Insert(gen.MustSource(gcfg, 6_000, int64(100+round)))
		if err != nil {
			t.Fatal(err)
		}
		if upd.RefittedLeaves < 2 {
			t.Fatalf("insert %d refit %d leaves, want both fat leaves", round, upd.RefittedLeaves)
		}
		roots := tracer.Roots()
		span := findSpan(roots[len(roots)-1], "leaf-completion")
		if span == nil {
			t.Fatalf("insert %d has no leaf-completion span", round)
		}
		attrs := map[string]any{}
		for _, a := range span.Attrs() {
			attrs[a.Key] = a.Value
		}
		slowest, okMax := attrs["fit_s_max"].(float64)
		sum, okSum := attrs["fit_s_sum"].(float64)
		n, okShared := attrs["shared_tasks"].(int64)
		if !okMax || !okSum || !okShared {
			t.Fatalf("insert %d: leaf-completion attributes %v miss fit_s_max, fit_s_sum or shared_tasks", round, attrs)
		}
		if slowest <= 0 || sum < slowest {
			t.Errorf("insert %d: fit_s_max %v, fit_s_sum %v", round, slowest, sum)
		}
		shared += n
	}
	if shared == 0 {
		t.Error("no fit task ran on a worker other than its fit's owner")
	}
}

// findSpan returns the first span named name in s's subtree, preorder.
func findSpan(s *obs.Span, name string) *obs.Span {
	if s.Name() == name {
		return s
	}
	for _, c := range s.Children() {
		if f := findSpan(c, name); f != nil {
			return f
		}
	}
	return nil
}

// tracerSkeletonOf renders one span subtree the same way Tracer.Skeleton
// renders roots (names and nesting, canonical sibling order).
func tracerSkeletonOf(s *obs.Span) string {
	children := s.Children()
	if len(children) == 0 {
		return s.Name()
	}
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = tracerSkeletonOf(c)
	}
	return s.Name() + "(" + strings.Join(parts, " ") + ")"
}

// TestBuildWithNilObservability: a build with no tracer, registry or
// logger must behave identically (the nil-safety contract end to end).
func TestBuildWithNilObservability(t *testing.T) {
	cfg := obsTestConfig()
	cfg.Parallelism = 1
	cfg.TempDir = t.TempDir()
	tree, err := Build(obsTestSource(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if err := tree.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
