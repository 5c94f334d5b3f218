package core

import (
	"log/slog"
	"sync/atomic"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/obs"
)

// event names one kind of thing a Build, Insert or Delete counts. Each
// event is counted by one statement, Tree.note, into the operation's tally
// and into the registry counter eventNames gives it; BuildStats and
// UpdateStats are read from the tally when the operation ends.
type event int

const (
	evCIHit  event = iota // a coarse criterion passed verification
	evCIMiss              // one failed it, for one of the five causes below
	evFailNoCandidate
	evFailBetterCat
	evFailBound
	evFailTie
	evFailMoment
	evScanTuples    // tuples a cleanup scan streamed (recursive ones included)
	evStuckTuples   // tuples a cleanup scan left in stuck sets
	evCoarseNodes   // coarse nodes a bootstrap kept
	evDisagreements // bootstrap-tree disagreements
	evScanSkips     // whole-chunk descents of a cleanup scan (chunkRouter.descend)
	evUpdateSkips   // the same, in an update's router
	evRebuilds      // subtrees rebuilt after a failed verification or spill fault
	evRebuildTuples // tuples of the families rebuilt or promoted
	evSpillRebuilds // rebuilds after a storage fault on the spill path
	evRecursions    // recursive BOAT invocations on spilled families
	evPromotions    // the recursive invocations leaf completion starts
	evFits          // in-memory fits in a Build
	evRefits        // in-memory fits in an update
	evMigrated      // pushed stuck tuples migrated between children
	numEvents
)

// eventNames are the registry counters of the events; promotions have
// none (rebuild.frontier counts them with the other recursions).
var eventNames = [numEvents]string{
	evCIHit:           "verify.ci.hit",
	evCIMiss:          "verify.ci.miss",
	evFailNoCandidate: "verify.fail.no_candidate",
	evFailBetterCat:   "verify.fail.better_cat",
	evFailBound:       "verify.fail.bound",
	evFailTie:         "verify.fail.tie",
	evFailMoment:      "verify.fail.moment",
	evScanTuples:      "scan.tuples",
	evStuckTuples:     "scan.stuck.tuples",
	evCoarseNodes:     "bootstrap.coarse_nodes",
	evDisagreements:   "bootstrap.disagreements",
	evScanSkips:       "scan.blocks_skipped",
	evUpdateSkips:     "update.blocks_skipped",
	evRebuilds:        "rebuild.subtrees",
	evRebuildTuples:   "rebuild.tuples",
	evSpillRebuilds:   "rebuild.spill",
	evRecursions:      "rebuild.frontier",
	evFits:            "leaf.inmemory",
	evRefits:          "leaf.refitted",
	evMigrated:        "update.migrated_tuples",
}

// tally counts the events of one operation. Pool workers count into it
// concurrently, hence the atomics. fit is the event an in-memory fit
// counts as: evFits in a Build, evRefits in an update.
type tally struct {
	n   [numEvents]atomic.Int64
	fit event
}

// note counts v events of kind e in the current operation's tally and in
// e's registry counter.
func (t *Tree) note(e event, v int64) {
	t.op.n[e].Add(v)
	t.met.events[e].Add(v)
}

func (tl *tally) get(e event) int64 { return tl.n[e].Load() }

// buildStats reads a finished Build's statistics from its tally.
func (tl *tally) buildStats(sampleSize int) BuildStats {
	return BuildStats{
		TuplesSeen:       tl.get(evScanTuples),
		SampleSize:       sampleSize,
		CoarseNodes:      int(tl.get(evCoarseNodes)),
		Disagreements:    int(tl.get(evDisagreements)),
		FailedNodes:      tl.get(evCIMiss),
		FailNoCandidate:  tl.get(evFailNoCandidate),
		FailBetterCat:    tl.get(evFailBetterCat),
		FailBound:        tl.get(evFailBound),
		FailTie:          tl.get(evFailTie),
		FailMoment:       tl.get(evFailMoment),
		FrontierRebuilds: tl.get(evRecursions),
		SpillRebuilds:    tl.get(evSpillRebuilds),
		RebuildTuples:    tl.get(evRebuildTuples),
		StuckTuples:      tl.get(evStuckTuples),
		InMemoryLeaves:   tl.get(evFits),
	}
}

// updateStats reads an update's statistics from its tally and from r,
// the router that streamed its chunk.
func (tl *tally) updateStats(r *chunkRouter) UpdateStats {
	return UpdateStats{
		TuplesSeen:      r.tuples,
		Chunks:          r.chunks,
		RebuiltSubtrees: tl.get(evCIMiss) + tl.get(evPromotions) + tl.get(evSpillRebuilds),
		RebuildTuples:   tl.get(evRebuildTuples),
		MigratedTuples:  tl.get(evMigrated),
		RefittedLeaves:  tl.get(evRefits),
		FailNoCandidate: tl.get(evFailNoCandidate),
		FailBetterCat:   tl.get(evFailBetterCat),
		FailBound:       tl.get(evFailBound),
		FailTie:         tl.get(evFailTie),
		FailMoment:      tl.get(evFailMoment),
	}
}

// metricSet caches the registry instruments the build updates, resolved
// once per Tree instead of one registry lookup (a mutex acquisition) per
// verified node. Every field is nil when no registry is configured, so
// updates degrade to nil-receiver no-ops.
type metricSet struct {
	// events holds the counter of each named event (see note).
	events       [numEvents]*obs.Counter
	stuckPerNode *obs.Histogram

	// Streaming updates (Insert/Delete) and snapshot publication.
	updTuples, updChunks *obs.Counter
	updRate              *obs.Gauge
	epochSwaps           *obs.Counter
	epochGauge           *obs.Gauge

	// Serve-path latency distributions: one Observe per completed
	// Insert/Delete (chunk routed through epoch republish). The predict
	// twin lives in internal/predict.
	updLatency *obs.LatencyHistogram

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
	m := metricSet{
		stuckPerNode: r.Histogram("scan.stuck.per_node"),
		updTuples:    r.Counter("update.tuples"),
		updChunks:    r.Counter("update.chunks"),
		updRate:      r.Gauge("update.tuples_per_sec"),
		epochSwaps:   r.Counter("update.epoch_swaps"),
		epochGauge:   r.Gauge("update.epoch"),
		updLatency:   r.Latency("update.latency"),

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
	for e, name := range eventNames {
		if name != "" {
			m.events[e] = r.Counter(name)
		}
	}
	return m
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

// recordPipeline reads a closed pipelined scanner's stage report once
// (the stage counters quiesce at Close) and records it twice: into the
// cumulative registry counters (blocks, physical bytes, per-stage nanos),
// and as completed child spans of the scan span sp (nil ok) — read
// (filesystem wait), decode (checksum + expand, cumulative across
// workers), deliver (consumer wait on the ordered ring) — plus block and
// byte volume attributes. A non-pipelined scanner (row files, in-memory
// sources) records nothing.
func (t *Tree) recordPipeline(sp *obs.Span, csc data.ChunkScanner) {
	pr, ok := csc.(data.PipelineReporter)
	if !ok {
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
	if sp == nil {
		return
	}
	sp.SetAttr("pipeline_depth", ps.Depth)
	sp.SetAttr("pipeline_workers", ps.Workers)
	sp.SetAttr("pipeline_blocks", ps.Blocks)
	sp.SetAttr("pipeline_phys_bytes", ps.PhysBytes)
	sp.AddCompleted("pipeline-read", ps.Start, ps.Read)
	sp.AddCompleted("pipeline-decode", ps.Start, ps.Decode)
	sp.AddCompleted("pipeline-deliver", ps.Start, ps.Deliver)
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

// resolveLogger returns the configured logger, or a discard logger, so
// call sites never branch on nil.
func resolveLogger(l *slog.Logger) *slog.Logger {
	if l != nil {
		return l
	}
	return obs.NopLogger()
}
