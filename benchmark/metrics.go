package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The lists below are the source of
// truth for the harness; BENCHMARK.json repeats them with regression
// bounds, and the self-test checks that the two agree.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library sees. Every workload
// reports every one of them. A "write" is one Grow on the grow-*
// workloads and one Insert or Delete on the stream-* workloads; a "read"
// predicts one 1,000-tuple batch. setup_s and the *_scaled_* timings are
// scaled to the reference kernel's nominal speed (see reference.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"write_p50_scaled_s", "s", "lower"},
	{"write_tuples_per_scaled_s", "tuples/s", "higher"},
	{"read_p50_scaled_us", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced pass's per-layer metrics, named
// <module>.<what>. Span self times, counts and I/O are per write op.
var perLayer = []metricDef{
	{"machine.ref_s", "s", "lower"},
	{"unscaled.setup_s", "s", "lower"},
	{"unscaled.write_p50_s", "s", "lower"},
	{"unscaled.read_p50_us", "us", "lower"},
	{"data.scan_s", "s", "lower"},
	{"data.pipeline.read_s", "s", "lower"},
	{"data.pipeline.decode_s", "s", "lower"},
	{"data.pipeline.deliver_s", "s", "lower"},
	{"data.phys_bytes_read", "bytes", "lower"},
	{"data.logical_bytes_read", "bytes", "lower"},
	{"data.blocks_skipped", "count", "higher"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.mallocs", "count", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_s", "s", "lower"},
	{"bootstrap.trees.self_s", "s", "lower"},
	{"bootstrap.intersect.self_s", "s", "lower"},
	{"bootstrap.invocations", "count", "lower"},
	{"bootstrap.agreement", "ratio", "higher"},
	{"core.sampling.self_s", "s", "lower"},
	{"core.skeleton.self_s", "s", "lower"},
	{"core.cleanup_scan.self_s", "s", "lower"},
	{"core.stuck_frac", "ratio", "lower"},
	{"core.verification.self_s", "s", "lower"},
	{"core.leaf_completion.self_s", "s", "lower"},
	{"core.rebuild.self_s", "s", "lower"},
	{"core.rebuild.count", "count", "lower"},
	{"core.rebuild_amplification", "ratio", "lower"},
	{"core.route_chunk.self_s", "s", "lower"},
	{"core.update_process.self_s", "s", "lower"},
	{"core.refitted_leaves", "count", "lower"},
	{"core.rebuilt_subtrees", "count", "lower"},
	{"core.migrated_tuples", "count", "lower"},
	{"core.db_scans", "count", "lower"},
	{"core.tuples_read", "count", "lower"},
	{"inmem.reference_s", "s", "lower"},
	{"tree.compile_s", "s", "lower"},
	{"predict.kernel_tuples_per_s", "tuples/s", "higher"},
	{"predict.p99_us", "us", "lower"},
	{"predict.stalls", "count", "lower"},
	{"predict.p9999_us", "us", "lower"},
	{"obs.trace_coverage", "ratio", "higher"},
	{"obs.trace_overhead", "ratio", "lower"},
	{"loadgen.late_max_s", "s", "lower"},
}

// median returns the middle value of xs (the mean of the two middle
// values for even lengths); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so spreads printed here match the acceptance check's.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile range of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// meanOfMedians is the mean over a run's inputs of each input's median
// latency, in seconds. Cost depends on each input's tree, so the median of
// the pooled latencies jumps between the inputs' modes from seed to seed;
// this statistic averages them instead.
func meanOfMedians(byInput [][]time.Duration) float64 {
	var s float64
	var n int
	for _, ds := range byInput {
		if len(ds) > 0 {
			s += median(seconds(ds))
			n++
		}
	}
	return s / float64(n)
}

// pooled concatenates per-input latencies.
func pooled(byInput [][]time.Duration) []time.Duration {
	var all []time.Duration
	for _, ds := range byInput {
		all = append(all, ds...)
	}
	return all
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// latencies, in seconds; 0 for an empty slice. ds is sorted in place.
func percentile(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(ds, func(i, j int) bool { return ds[i] < ds[j] }) {
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	}
	i := int(math.Ceil(q*float64(len(ds)))) - 1
	if i < 0 {
		i = 0
	}
	return ds[i].Seconds()
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
