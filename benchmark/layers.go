package main

import (
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/boatml/boat"
)

// spanTotals accumulates, per span name, the self time and the number of
// spans over whole span trees, nested rebuilds included, plus the tuples
// the rebuilds re-processed.
type spanTotals struct {
	self          map[string]float64
	count         map[string]int
	rebuildTuples int64
}

func newSpanTotals() *spanTotals {
	return &spanTotals{self: map[string]float64{}, count: map[string]int{}}
}

// add walks the tree rooted at s. A span's self time is its duration
// minus the union of its children's intervals. The pipeline-* children
// of a scan are the exception: they are stage totals summed over the
// pipeline's own goroutines (see obs.Span.AddCompleted), not intervals of
// the scanning goroutine, so they are reported as data.pipeline.* and
// left out of the union.
func (t *spanTotals) add(s *boat.Span) {
	start := s.StartTime()
	end := start.Add(s.Duration())
	var ivs [][2]time.Time
	for _, c := range s.Children() {
		t.add(c)
		if strings.HasPrefix(c.Name(), "pipeline-") {
			continue
		}
		a, b := c.StartTime(), c.StartTime().Add(c.Duration())
		if a.Before(start) {
			a = start
		}
		if b.After(end) {
			b = end
		}
		if b.After(a) {
			ivs = append(ivs, [2]time.Time{a, b})
		}
	}
	name := s.Name()
	t.self[name] += (s.Duration() - covered(ivs)).Seconds()
	t.count[name]++
	if name != "rebuild" {
		return
	}
	for _, a := range s.Attrs() {
		if a.Key == "tuples" {
			switch v := a.Value.(type) {
			case int:
				t.rebuildTuples += int64(v)
			case int64:
				t.rebuildTuples += v
			}
		}
	}
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]time.Time) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(cur[1]) {
			total += cur[1].Sub(cur[0])
			cur = iv
			continue
		}
		if iv[1].After(cur[1]) {
			cur[1] = iv[1]
		}
	}
	return total + cur[1].Sub(cur[0])
}

// opRoots are the traced write ops of one traced pass: build roots on
// the grow-* workloads, insert/delete roots on the stream-* workloads.
type opRoots struct {
	roots []*boat.Span
	// upd holds each update op's UpdateStats (stream workloads only).
	upd []boat.UpdateStats
	// size is the training multiset the ops maintain, the base of
	// core.rebuild_amplification.
	size int64
}

// spanMetrics derives the per-op span metrics of the traced write ops.
func (o opRoots) spanMetrics(m map[string]float64) {
	n := float64(len(o.roots))
	if n == 0 {
		return
	}
	t := newSpanTotals()
	coverage := 1.0
	var io boat.IOSnapshot
	var processS float64
	for _, r := range o.roots {
		t.add(r)
		if c := r.ChildCoverage(); c < coverage {
			coverage = c
		}
		io = io.Add(r.IODelta())
		if r.Name() == "insert" || r.Name() == "delete" {
			processS += r.Duration().Seconds()
			for _, c := range r.Children() {
				if c.Name() == "route-chunk" {
					processS -= c.Duration().Seconds()
				}
			}
		}
	}
	per := func(name string) float64 { return t.self[name] / n }
	m["bootstrap.trees.self_s"] = per("bootstrap-trees")
	m["bootstrap.intersect.self_s"] = per("intersect")
	m["bootstrap.invocations"] = float64(t.count["bootstrap"]) / n
	m["core.sampling.self_s"] = per("sampling")
	m["core.skeleton.self_s"] = per("skeleton")
	m["core.cleanup_scan.self_s"] = per("cleanup-scan")
	m["core.verification.self_s"] = per("verification")
	m["core.leaf_completion.self_s"] = per("leaf-completion")
	m["core.rebuild.self_s"] = per("rebuild")
	m["core.rebuild.count"] = float64(t.count["rebuild"]) / n
	m["core.route_chunk.self_s"] = per("route-chunk")
	m["core.update_process.self_s"] = processS / n
	m["data.pipeline.read_s"] = per("pipeline-read")
	m["data.pipeline.decode_s"] = per("pipeline-decode")
	m["data.pipeline.deliver_s"] = per("pipeline-deliver")
	m["data.phys_bytes_read"] = float64(io.PhysBytesRead) / n
	m["data.logical_bytes_read"] = float64(io.BytesRead) / n
	m["core.db_scans"] = float64(io.Scans) / n
	m["core.tuples_read"] = float64(io.TuplesRead) / n
	m["obs.trace_coverage"] = coverage
	m["core.rebuild_amplification"] = float64(t.rebuildTuples) / float64(o.size) / n
	var refit, rebuilt, migrated int64
	for _, u := range o.upd {
		refit += u.RefittedLeaves
		rebuilt += u.RebuiltSubtrees
		migrated += u.MigratedTuples
	}
	m["core.refitted_leaves"] = float64(refit) / n
	m["core.rebuilt_subtrees"] = float64(rebuilt) / n
	m["core.migrated_tuples"] = float64(migrated) / n
}

// runtimeDelta measures the Go runtime's allocation and GC work across
// untraced write ops.
type runtimeDelta struct {
	before               runtime.MemStats
	allocB, mallocs, gcs uint64
	pauseNs              uint64
	ops                  int
}

func (r *runtimeDelta) start() { runtime.ReadMemStats(&r.before) }

// stop closes an interval that covered ops write ops.
func (r *runtimeDelta) stop(ops int) {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.allocB += after.TotalAlloc - r.before.TotalAlloc
	r.mallocs += after.Mallocs - r.before.Mallocs
	r.gcs += uint64(after.NumGC - r.before.NumGC)
	r.pauseNs += after.PauseTotalNs - r.before.PauseTotalNs
	r.ops += ops
}

func (r *runtimeDelta) metrics(m map[string]float64) {
	if r.ops == 0 {
		return
	}
	n := float64(r.ops)
	m["runtime.alloc_mb"] = float64(r.allocB) / (1 << 20) / n
	m["runtime.mallocs"] = float64(r.mallocs) / n
	m["runtime.gc_cycles"] = float64(r.gcs) / n
	m["runtime.gc_pause_s"] = float64(r.pauseNs) / 1e9 / n
}
