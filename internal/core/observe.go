package core

import (
	"log/slog"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/obs"
)

// metricSet caches the registry instruments the build updates, resolved
// once per Tree instead of one registry lookup (a mutex acquisition) per
// verified node. Every field is nil when no registry is configured, so
// updates degrade to nil-receiver no-ops.
type metricSet struct {
	// Verification: one hit or miss per verified coarse node, plus the
	// per-cause failure breakdown mirroring BuildStats.FailXxx.
	ciHit, ciMiss                                                  *obs.Counter
	failNoCandidate, failBetterCat, failBound, failTie, failMoment *obs.Counter

	// Cleanup scan. blocksSkipped counts the nodes at which the chunk
	// router descended a whole batch by zone map alone (partition kernel
	// bypassed) during cleanup scans; updBlocksSkipped counts them during
	// Insert/Delete.
	scanTuples       *obs.Counter
	stuckTuples      *obs.Counter
	stuckPerNode     *obs.Histogram
	blocksSkipped    *obs.Counter
	updBlocksSkipped *obs.Counter

	// Rebuilds and leaf completion.
	rebuildSubtrees, rebuildTuples, spillRebuilds *obs.Counter
	frontierRebuilds                              *obs.Counter
	leavesInMemory, leavesRefitted                *obs.Counter
	migratedTuples                                *obs.Counter

	// Streaming updates (Insert/Delete) and snapshot publication.
	updTuples, updChunks *obs.Counter
	updRate              *obs.Gauge
	epochSwaps           *obs.Counter
	epochGauge           *obs.Gauge

	// Serve-path latency distributions: one Observe per completed
	// Insert/Delete (chunk routed through epoch republish). The predict
	// twin lives in internal/predict.
	updLatency *obs.LatencyHistogram

	// Sampling phase.
	coarseNodes, disagreements *obs.Counter

	// Pipelined-scan telemetry. The pipe* gauges are the live
	// backpressure readings (fed per delivered block via the
	// data.PipelineObserver hook while a scan runs); the pipeTotal*
	// counters accumulate post-scan PipelineStats across every pipelined
	// read — cleanup scans and the Insert/Delete router alike.
	pipeInFlight, pipeRing                  *obs.Gauge
	pipeReadNS, pipeDecodeNS, pipeDeliverNS *obs.Gauge
	pipeTotalBlocks, pipeTotalPhysBytes     *obs.Counter
	pipeTotalReadNS, pipeTotalDecodeNS      *obs.Counter
	pipeTotalDeliverNS                      *obs.Counter
}

func newMetricSet(r *obs.Registry) metricSet {
	if !r.Enabled() {
		return metricSet{}
	}
	return metricSet{
		ciHit:            r.Counter("verify.ci.hit"),
		ciMiss:           r.Counter("verify.ci.miss"),
		failNoCandidate:  r.Counter("verify.fail.no_candidate"),
		failBetterCat:    r.Counter("verify.fail.better_cat"),
		failBound:        r.Counter("verify.fail.bound"),
		failTie:          r.Counter("verify.fail.tie"),
		failMoment:       r.Counter("verify.fail.moment"),
		scanTuples:       r.Counter("scan.tuples"),
		stuckTuples:      r.Counter("scan.stuck.tuples"),
		stuckPerNode:     r.Histogram("scan.stuck.per_node"),
		blocksSkipped:    r.Counter("scan.blocks_skipped"),
		updBlocksSkipped: r.Counter("update.blocks_skipped"),
		rebuildSubtrees:  r.Counter("rebuild.subtrees"),
		rebuildTuples:    r.Counter("rebuild.tuples"),
		spillRebuilds:    r.Counter("rebuild.spill"),
		frontierRebuilds: r.Counter("rebuild.frontier"),
		leavesInMemory:   r.Counter("leaf.inmemory"),
		leavesRefitted:   r.Counter("leaf.refitted"),
		migratedTuples:   r.Counter("update.migrated_tuples"),
		updTuples:        r.Counter("update.tuples"),
		updChunks:        r.Counter("update.chunks"),
		updRate:          r.Gauge("update.tuples_per_sec"),
		epochSwaps:       r.Counter("update.epoch_swaps"),
		epochGauge:       r.Gauge("update.epoch"),
		updLatency:       r.Latency("update.latency"),
		coarseNodes:      r.Counter("bootstrap.coarse_nodes"),
		disagreements:    r.Counter("bootstrap.disagreements"),

		// Created eagerly (not on first pipelined scan) so the series
		// exist on /metrics from the first scrape, zero-valued until a
		// columnar source feeds them.
		pipeInFlight:       r.Gauge("pipeline.in_flight_blocks"),
		pipeRing:           r.Gauge("pipeline.ring_occupancy"),
		pipeReadNS:         r.Gauge("pipeline.read_stall_ns"),
		pipeDecodeNS:       r.Gauge("pipeline.decode_ns"),
		pipeDeliverNS:      r.Gauge("pipeline.deliver_stall_ns"),
		pipeTotalBlocks:    r.Counter("pipeline.blocks"),
		pipeTotalPhysBytes: r.Counter("pipeline.phys_bytes"),
		pipeTotalReadNS:    r.Counter("pipeline.read_ns"),
		pipeTotalDecodeNS:  r.Counter("pipeline.decode_ns_total"),
		pipeTotalDeliverNS: r.Counter("pipeline.deliver_ns"),
	}
}

// ObservePipeline implements data.PipelineObserver: one live
// backpressure reading per delivered block, stored into the pipe*
// gauges. The metricSet pointer itself is the observer so no extra
// allocation rides on the scan setup.
func (m *metricSet) ObservePipeline(l data.PipelineLive) {
	m.pipeInFlight.Set(float64(l.InFlight))
	m.pipeRing.Set(float64(l.Ring))
	m.pipeReadNS.Set(float64(l.Read))
	m.pipeDecodeNS.Set(float64(l.Decode))
	m.pipeDeliverNS.Set(float64(l.Deliver))
}

// pipelineObserver returns the live-gauge observer for a scan's
// pipeline: the metric set when metrics are enabled, nil otherwise.
func (t *Tree) pipelineObserver() data.PipelineObserver {
	if t.cfg.Metrics.Enabled() {
		return &t.met
	}
	return nil
}

// recordPipelineStats accumulates a finished pipelined scanner's stage
// report into the registry counters (blocks, physical bytes, per-stage
// nanos) — the cumulative, scrapeable twin of the per-span attribution
// attachPipelineSpans performs. Non-pipelined scanners record nothing.
func (t *Tree) recordPipelineStats(csc data.ChunkScanner) {
	if csc == nil {
		return
	}
	pr, ok := csc.(data.PipelineReporter)
	if !ok || !t.cfg.Metrics.Enabled() {
		return
	}
	ps := pr.PipelineStats()
	if !ps.Enabled {
		return
	}
	t.met.pipeTotalBlocks.Add(ps.Blocks)
	t.met.pipeTotalPhysBytes.Add(ps.PhysBytes)
	t.met.pipeTotalReadNS.Add(int64(ps.Read))
	t.met.pipeTotalDecodeNS.Add(int64(ps.Decode))
	t.met.pipeTotalDeliverNS.Add(int64(ps.Deliver))
}

// recordScanThroughput publishes a cleanup scan's tuple count and
// throughput as the scan.shard.0.* series, the names dashboards and the
// CI metrics smoke test read.
func (t *Tree) recordScanThroughput(tuples int64, seconds float64) {
	r := t.cfg.Metrics
	if !r.Enabled() {
		return
	}
	r.Counter("scan.shard.0.tuples").Add(tuples)
	if seconds > 0 {
		r.Gauge("scan.shard.0.tuples_per_sec").Set(float64(tuples) / seconds)
	}
}

// observeStuckSets feeds the per-node stuck-set size histogram after a
// cleanup scan (skipped entirely when metrics are disabled).
func (t *Tree) observeStuckSets(n *bnode) {
	if t.met.stuckPerNode == nil {
		return
	}
	var walk func(*bnode)
	walk = func(n *bnode) {
		if n == nil || n.isLeaf() {
			return
		}
		if n.pending != nil {
			t.met.stuckPerNode.Observe(n.pending.Len())
		}
		walk(n.left)
		walk(n.right)
	}
	walk(n)
}

// resolveLogger returns the configured logger, or a discard logger, so
// call sites never branch on nil.
func resolveLogger(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return obs.NopLogger()
}
