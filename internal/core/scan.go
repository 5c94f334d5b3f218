package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/obs"
)

// The cleanup scan (scan 2 of the paper) is an Insert of all of D at
// weight +1 into a freshly built skeleton: every tuple updates class
// counts, interval counts, AVC counts, histogram buckets and moment
// statistics along its root-to-stick path, and lands in exactly one
// buffer (a stuck set S_n or a leaf family). It streams each chunk
// through the chunk router of Insert/Delete (update.go), starting from
// the root it is given: the whole tree, or a rebuild's subtree. With
// Parallelism > 1 the router forks subtree descents on the operation's
// pool; every buffer still receives its tuples in stream order. On a
// columnar file the prefetch/decode pipeline overlaps reads and decoding
// with the routing.

// cleanupScan streams src down the subtree rooted at root on the pool
// worker wk, returning the number of tuples seen.
//
// Storage faults degrade gracefully: a scan that fails with a storage
// error gets one reset-and-retry before the error propagates. The
// recovery is exact — the scan is the sole contributor to every statistic
// it touches, so zero-and-rerun (resetScanState) reproduces precisely the
// state a fault-free scan would have built. Logical errors (bad data,
// schema mismatch) are never retried.
func (t *Tree) cleanupScan(src data.Source, root *bnode, sp *obs.Span, wk *inmem.Worker) (int64, error) {
	seen, err := t.scanPass(src, root, sp, wk)
	if err != nil && recoverableScanError(err) {
		t.cfg.Stats.RecordScanRetry()
		t.log.Warn("cleanup scan hit a storage fault; retrying once", "err", err)
		sp.SetAttr("retried", true)
		if rerr := resetScanState(root); rerr != nil {
			return seen, fmt.Errorf("core: resetting after failed cleanup scan: %w", rerr)
		}
		seen, err = t.scanPass(src, root, sp, wk)
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

// scanPass is one pass of the cleanup scan: src streamed through the chunk
// router at weight +1, on wk. sp (nil ok) receives the pipeline stage
// spans and the count of whole-chunk descents.
func (t *Tree) scanPass(src data.Source, root *bnode, sp *obs.Span, wk *inmem.Worker) (int64, error) {
	start := time.Now()
	r := t.newChunkRouter(+1)
	sc := t.scratch.Get().(*routeScratch)
	err := t.stream(r, src, root, sc, sp, wk)
	t.scratch.Put(sc)
	if err == nil {
		t.recordScanThroughput(r.tuples, time.Since(start).Seconds())
		if skips := r.skips.Load(); skips > 0 {
			t.note(evScanSkips, skips)
			sp.SetAttr("blocks_skipped", skips)
		}
	}
	return r.tuples, err
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
		return n.family.reset()
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
