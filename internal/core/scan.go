package core

import (
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/obs"
)

// The cleanup scan (scan 2 of the paper) is a pure aggregation: every
// tuple updates class counts, AVC counts, histogram buckets and moment
// statistics along its root-to-stick path, and lands in exactly one
// buffer (a stuck set S_n or a leaf family). It runs in one goroutine, so
// every buffer receives its tuples in stream order at every Parallelism
// setting; on a columnar file the prefetch/decode pipeline overlaps reads
// and decoding with the routing. (Sharding the scan across workers lost
// to this single scan on every measured workload; see DESIGN.md §9.)
//
// The scan is level-synchronous over columnar chunks (data.Chunk): a node
// receives a batch of row indices into the chunk, applies the batched
// count kernels (CatAVC.AddBatch, Histogram.AddBatch, Moments.AddChunk)
// attribute by attribute, partitions the batch by its coarse split in one
// pass, and recurses. Compared to descending the tree once per tuple,
// this keeps each kernel's working set (one attribute column plus one
// statistic) hot across thousands of rows and makes the steady state
// allocation-free: chunks are reused, index batches live in per-depth
// scratch buffers, and stuck/leaf rows are copied into the buffers' slab
// arenas.

// cleanupScan streams src down the subtree rooted at root, returning the
// number of tuples seen, then derives the deferred routing counts.
//
// Storage faults degrade gracefully: a scan that fails with a storage
// error gets one reset-and-retry before the error propagates. The
// recovery is exact — the scan is the sole contributor to every statistic
// it touches, so zero-and-rerun (resetScanState) reproduces precisely the
// state a fault-free scan would have built. Logical errors (bad data,
// schema mismatch) are never retried.
func (t *Tree) cleanupScan(src data.Source, root *bnode, sp *obs.Span) (int64, error) {
	seen, err := t.scanPass(src, root, sp)
	if err != nil && recoverableScanError(err) {
		t.cfg.Stats.RecordScanRetry()
		t.log.Warn("cleanup scan hit a storage fault; retrying once", "err", err)
		sp.SetAttr("retried", true)
		if rerr := resetScanState(root); rerr != nil {
			return seen, fmt.Errorf("core: resetting after failed cleanup scan: %w", rerr)
		}
		seen, err = t.scanPass(src, root, sp)
	}
	if err == nil {
		deriveRoutingCounts(root)
	}
	return seen, err
}

// recoverableScanError reports whether a failed scan is worth rerunning:
// storage faults — spill-path failures, block-level read/decode errors
// (which wrap transient and permanent filesystem faults alike), and bare
// transient faults. The reset-and-rerun recovery is exact either way; a
// permanently corrupt file simply fails again with the same typed error,
// costing one wasted pass. Logical errors (schema mismatch, routing
// bugs) are never retried.
func recoverableScanError(err error) bool {
	if data.IsSpillError(err) || data.IsTransient(err) {
		return true
	}
	var be *data.BlockError
	return errors.As(err, &be)
}

// deriveRoutingCounts reconstructs the per-node class statistics the
// chunked scan defers out of its partition loop: rows routed left are
// exactly the left child's intake and rows routed right the right
// child's, so for a numeric internal node lowCounts = left.classCounts,
// highCounts = right.classCounts, and classCounts = lowCounts +
// highCounts + the stuck rows counted during the scan. A categorical
// node's classCounts is simply the two intakes' sum (its partition
// strands no rows). Every term is an exact integer accumulated from the
// same tuple multiset the per-row path counts, so the derived values are
// identical to eagerly counted ones. Must run exactly once, after a
// successful chunked scan; leaves count their classes during the scan
// and are left untouched.
func deriveRoutingCounts(n *bnode) {
	if n == nil || n.isLeaf() {
		return
	}
	deriveRoutingCounts(n.left)
	deriveRoutingCounts(n.right)
	if n.coarse.kind == data.Numeric {
		for i, v := range n.left.classCounts {
			n.lowCounts[i] += v
		}
		for i, v := range n.right.classCounts {
			n.highCounts[i] += v
		}
		for i := range n.classCounts {
			n.classCounts[i] += n.lowCounts[i] + n.highCounts[i]
		}
	} else {
		for i := range n.classCounts {
			n.classCounts[i] += n.left.classCounts[i] + n.right.classCounts[i]
		}
	}
}

// scanPass is one pass of the cleanup scan: chunked iteration
// through the batch router, without the post-scan count derivation. sp
// (nil ok) receives the pipeline stage spans and zone-skip attribution.
func (t *Tree) scanPass(src data.Source, root *bnode, sp *obs.Span) (int64, error) {
	rows := t.cfg.chunkRows()
	sc := newRouteScratch(rows)
	sc.zoneSkip = !t.cfg.DisableZoneSkip
	start := time.Now()
	csc, err := data.ScanChunksPipelined(src, t.pipelineObserver())
	if err != nil {
		return 0, err
	}
	var seen int64
	ch := data.NewChunk(len(t.schema.Attributes), rows)
	var scanErr error
	for scanErr == nil {
		ch.Reset()
		err := csc.NextChunk(ch)
		if err == io.EOF {
			break
		}
		if err != nil {
			scanErr = err
			break
		}
		if ch.Len() == 0 {
			continue
		}
		seen += int64(ch.Len())
		scanErr = root.routeChunk(ch, nil, sc, 0)
	}
	if cerr := csc.Close(); scanErr == nil {
		scanErr = cerr
	}
	attachPipelineSpans(sp, csc)
	t.recordPipelineStats(csc)
	if scanErr == nil {
		t.recordScanThroughput(seen, time.Since(start).Seconds())
		t.recordZoneSkips(sp, sc.skips)
	}
	return seen, scanErr
}

// attachPipelineSpans records a pipelined scanner's stage times — read
// (filesystem wait), decode (checksum + expand, cumulative across
// workers), deliver (consumer wait on the ordered ring) — as completed
// child spans of the scan span, plus block/byte volume attributes. Must
// run after the scanner is closed: the stage counters quiesce at Close.
// A non-pipelined scanner (row files, in-memory sources) attaches
// nothing.
func attachPipelineSpans(sp *obs.Span, csc data.ChunkScanner) {
	if csc == nil {
		return
	}
	pr, ok := csc.(data.PipelineReporter)
	if !ok || sp == nil {
		return
	}
	ps := pr.PipelineStats()
	if !ps.Enabled {
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

// recordZoneSkips publishes how many whole batches a scan routed by zone
// map alone.
func (t *Tree) recordZoneSkips(sp *obs.Span, skips int64) {
	if skips == 0 {
		return
	}
	t.met.blocksSkipped.Add(skips)
	sp.SetAttr("blocks_skipped", skips)
}

// rowScan is the row-at-a-time cleanup scan (one root-to-stick descent
// per tuple via Tree.route). The chunked scan replaced it in the build;
// it is retained as the baseline BenchmarkCleanupScan measures the
// columnar path against, and as an oracle in equivalence tests. To stay
// faithful to the path it stands in for — where every tuple was a
// separately heap-allocated []float64 the moment it entered a buffer —
// each tuple is cloned before routing; the shared buffers no longer do
// that themselves.
func (t *Tree) rowScan(src data.Source, root *bnode) (int64, error) {
	var seen int64
	err := data.ForEach(src, func(tp data.Tuple) error {
		seen++
		return t.route(root, tp.Clone(), +1)
	})
	return seen, err
}

// resetScanState zeroes every statistic and buffer a cleanup scan writes
// (class counts, AVC counts, histograms, moments, interval counts, stuck
// sets, leaf families), so a failed scan can be rerun from scratch. It is
// only correct when the scan being rerun is the sole contributor to those
// statistics — true for the cleanup scan, which always runs against a
// freshly built skeleton. Resetting a bag also clears its poisoned state,
// provided its overflow file can be truncated.
func resetScanState(n *bnode) error {
	if n == nil {
		return nil
	}
	clear(n.classCounts)
	if n.isLeaf() {
		n.dirty = true
		return n.family.Reset()
	}
	for _, cc := range n.catCounts {
		if cc != nil {
			cc.Reset()
		}
	}
	for _, h := range n.hist {
		if h != nil {
			h.Reset()
		}
	}
	if n.moments != nil {
		n.moments.Reset()
	}
	if n.coarse.kind == data.Numeric {
		clear(n.lowCounts)
		clear(n.highCounts)
		n.eqLow = 0
		if err := n.pending.Reset(); err != nil {
			return err
		}
	}
	if err := resetScanState(n.left); err != nil {
		return err
	}
	return resetScanState(n.right)
}

// zoneRoute decides whether a chunk's zone summary proves that every row
// of the chunk routes down one side of the coarse criterion: -1 all-left,
// +1 all-right, 0 undecided. The decisions are exactness-preserving —
// they reproduce the per-row partition bit for bit:
//
//   - numeric all-right needs z.Min > c.hi: every bounded value takes the
//     v > hi branch, and any NaN rows (excluded from Min/Max) take the
//     same pinned right edge, so HasNaN does not block the skip;
//   - numeric all-left needs z.Max < c.lo *strictly* and no NaN: no row
//     can be stuck, and no row equals c.lo, so eqLow stays untouched;
//   - categorical skips need the exact code bitmap (CodesValid): codes
//     covered by the subset all go left, codes disjoint from it (or >= 64,
//     which never set a bitmap bit and never match the subset) all go
//     right.
//
// The zone summarizes the whole chunk, so the decision holds for every
// subset of its rows — an idx batch deep in the descent included.
func zoneRoute(c *coarseCrit, z data.ColZone) int {
	if c.kind == data.Categorical {
		if !z.CodesValid {
			return 0
		}
		if z.Codes&^c.subset == 0 && z.Codes != 0 {
			return -1
		}
		if z.Codes&c.subset == 0 {
			return +1
		}
		return 0
	}
	if !z.Valid {
		return 0
	}
	if z.Min > c.hi {
		return +1
	}
	if !z.HasNaN && z.Max < c.lo {
		return -1
	}
	return 0
}

// routeScratch holds the per-depth index buffers of one goroutine's
// level-synchronous descent: the partition written at depth d stays live
// while the children recurse with the buffers of depth d+1 and below.
// Buffers are allocated once per depth and reused for every chunk.
type routeScratch struct {
	rows   int
	levels [][3][]int32 // per depth: left, right, stuck

	// zoneSkip enables zone-map block skipping; skips counts the nodes at
	// which a whole batch was routed by zone alone this scan.
	zoneSkip bool
	skips    int64
}

func newRouteScratch(rows int) *routeScratch { return &routeScratch{rows: rows} }

// at returns empty left/right/stuck index buffers for a recursion depth.
func (sc *routeScratch) at(depth int) (left, right, stuck []int32) {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, [3][]int32{
			make([]int32, 0, sc.rows),
			make([]int32, 0, sc.rows),
			make([]int32, 0, sc.rows),
		})
	}
	l := &sc.levels[depth]
	return l[0][:0], l[1][:0], l[2][:0]
}

// routeChunk is the level-synchronous insert-only cleanup-scan router:
// it processes the chunk rows named by idx (all rows when idx is nil) at
// this node — batched statistics updates, then a one-pass partition by
// the coarse split — and recurses into the children with the partition's
// index batches. depth is the recursion depth (an index into sc's
// buffers, not the node's depth in the full tree).
func (n *bnode) routeChunk(ch *data.Chunk, idx []int32, sc *routeScratch, depth int) error {
	classes := ch.Classes()
	if n.isLeaf() {
		if idx == nil {
			for _, c := range classes {
				n.classCounts[c]++
			}
		} else {
			for _, r := range idx {
				n.classCounts[classes[r]]++
			}
		}
		if idx == nil || len(idx) > 0 {
			n.dirty = true
		}
		return n.family.AddChunkRows(ch, idx)
	}
	for i, cc := range n.catCounts {
		if cc != nil {
			cc.AddBatch(ch.Col(i), classes, idx)
		}
	}
	for i, h := range n.hist {
		if h != nil {
			h.AddBatch(ch.Col(i), classes, idx)
		}
	}
	if n.moments != nil {
		n.moments.AddChunk(ch, idx)
	}
	// The partition reads only the split column: an internal node's class
	// counting is deferred to deriveRoutingCounts, which reconstructs
	// classCounts/lowCounts/highCounts bottom-up after the scan from the
	// children's intake (exact integer sums, so the deferral is invisible
	// in the results). Only the stuck rows — which descend no further —
	// have their classes counted here.
	c := n.coarse
	if sc.zoneSkip {
		// Zone-map pushdown: when the chunk's column summary proves every
		// row routes down one side, descend the whole batch directly and
		// skip the partition kernel. The statistics kernels above already
		// ran (they need every row at this node), and the insert-only
		// scan's deferred class counting makes the bypass free of
		// bookkeeping: a skip decision implies no stuck rows and no
		// v == c.lo rows, so eqLow and the stuck path are untouched by
		// construction.
		if z, ok := ch.Zone(c.attr); ok {
			if dir := zoneRoute(c, z); dir != 0 {
				sc.skips++
				if dir < 0 {
					return n.left.routeChunk(ch, idx, sc, depth+1)
				}
				return n.right.routeChunk(ch, idx, sc, depth+1)
			}
		}
	}
	col := ch.Col(c.attr)
	left, right, stuck := sc.at(depth)
	if c.kind == data.Categorical {
		if idx == nil {
			for r, v := range col {
				if code := uint(v); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, int32(r))
				} else {
					right = append(right, int32(r))
				}
			}
		} else {
			for _, r := range idx {
				if code := uint(col[r]); code < 64 && c.subset&(1<<code) != 0 {
					left = append(left, r)
				} else {
					right = append(right, r)
				}
			}
		}
	} else {
		var eq int64
		if idx == nil {
			for r, v := range col {
				switch {
				case v <= c.lo:
					if v == c.lo {
						eq++
					}
					left = append(left, int32(r))
				case v > c.hi || v != v:
					// NaN takes the pinned missing-value edge (right),
					// matching Tree.route and the compiled inference layout;
					// it must never stick in S_n.
					right = append(right, int32(r))
				default:
					stuck = append(stuck, int32(r))
				}
			}
		} else {
			for _, r := range idx {
				v := col[r]
				switch {
				case v <= c.lo:
					if v == c.lo {
						eq++
					}
					left = append(left, r)
				case v > c.hi || v != v:
					right = append(right, r)
				default:
					stuck = append(stuck, r)
				}
			}
		}
		for _, r := range stuck {
			n.classCounts[classes[r]]++
		}
		n.eqLow += eq
		if len(stuck) > 0 {
			// Inside the confidence interval: the rows stick at n, copied
			// from the chunk into the bag's arena in stream order.
			if err := n.pending.AddChunkRows(ch, stuck); err != nil {
				return err
			}
		}
	}
	if len(left) > 0 {
		if err := n.left.routeChunk(ch, left, sc, depth+1); err != nil {
			return err
		}
	}
	if len(right) > 0 {
		return n.right.routeChunk(ch, right, sc, depth+1)
	}
	return nil
}
