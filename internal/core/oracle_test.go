package core

import "github.com/boatml/boat/internal/data"

// The per-tuple oracle of the chunk router. Production code streams every
// tuple through the chunk router (update.go): the cleanup scan, Insert,
// Delete, and the push and migration of stuck sets. The row-at-a-time
// descent below is what the router must reproduce node by node; it backs
// TestScanModesAgree, TestUpdateChunkedMatchesRow and the row baseline of
// BenchmarkCleanupScan.

// route streams one tuple down the subtree rooted at n with weight w
// (+1 insert, -1 delete), updating every per-node statistic along its
// path, exactly as the cleanup phase of Section 3.3/3.5 prescribes:
// update counts at the node; if the coarse attribute is numeric and the
// value falls inside the confidence interval, the tuple sticks in S_n;
// otherwise it descends. Deletions of stuck tuples are removed from the
// pushed set and the removal continues downward along the path the
// original push took (routedThr).
func (t *Tree) route(n *bnode, tp data.Tuple, w int64) error {
	for {
		n.classCounts[tp.Class] += w
		if n.isLeaf() {
			n.dirty = true
			ch := data.NewChunk(len(tp.Values), 1)
			ch.AppendTuple(tp)
			return n.family.apply(ch, nil, w)
		}
		for i, cc := range n.catCounts {
			if cc != nil {
				cc.Add(int(tp.Values[i]), tp.Class, w)
			}
		}
		for i, h := range n.hist {
			if h != nil {
				h.Add(tp.Values[i], tp.Class, w)
			}
		}
		if n.moments != nil {
			n.moments.Add(tp, w)
		}
		c := n.coarse
		if c.kind == data.Categorical {
			// Same predicate as the compiled inference layout
			// (tree.FlatTree): codes outside [0, 64) — including the
			// platform-dependent uint conversion of negative or NaN values,
			// which always lands at or above 1<<63 — and codes outside the
			// subset take the pinned right edge.
			code := uint(tp.Values[c.attr])
			if code < 64 && c.subset&(1<<code) != 0 {
				n = n.left
			} else {
				n = n.right
			}
			continue
		}
		v := tp.Values[c.attr]
		switch {
		case v <= c.lo:
			n.lowCounts[tp.Class] += w
			if v == c.lo {
				n.eqLow += w
			}
			n = n.left
		case v > c.hi || v != v:
			// Above the interval — or NaN, which takes the pinned
			// missing-value edge (right of every finite threshold, exactly
			// as FlatTree classifies it) rather than sticking in S_n, where
			// it would corrupt the in-interval split-point candidates.
			n.highCounts[tp.Class] += w
			n = n.right
		default:
			// Inside the confidence interval: the tuple sticks at n.
			if w > 0 {
				return n.pending.Add(tp)
			}
			// Deleting a stuck tuple: it was pushed down by routedThr in
			// an earlier pass; undo both the bag entry and the push.
			if err := n.pushed.Remove(tp); err != nil {
				return err
			}
			if v <= n.routedThr {
				n = n.left
			} else {
				n = n.right
			}
		}
	}
}

// rowScan is the row-at-a-time cleanup scan: one root-to-stick descent per
// tuple via Tree.route. To stay faithful to the path it stands in for —
// where every tuple was a separately heap-allocated []float64 the moment
// it entered a buffer — each tuple is cloned before routing; the shared
// buffers no longer do that themselves.
func (t *Tree) rowScan(src data.Source, root *bnode) (int64, error) {
	var seen int64
	err := data.ForEach(src, func(tp data.Tuple) error {
		seen++
		return t.route(root, tp.Clone(), +1)
	})
	return seen, err
}

// ScanMode names a cleanup-scan implementation for the tests and the
// benchmark that compare them.
type ScanMode string

const (
	// ScanModeRow is the per-tuple oracle, rowScan.
	ScanModeRow ScanMode = "row"
	// ScanModeChunk is the scan the build runs: the chunk router at +1.
	ScanModeChunk ScanMode = "chunk"
)

// runMode performs one cleanup scan in the given mode over a skeleton that
// must be freshly built or Reset, returning the tuples seen.
func (b *ScanBench) runMode(mode ScanMode) (int64, error) {
	if mode == ScanModeRow {
		return b.tree.rowScan(b.src, b.root)
	}
	return b.RunOnce()
}

// rowUpdate is Insert (w = +1) or Delete (w = -1) with the chunk routed
// one tuple at a time through Tree.route instead of the chunk router; the
// processing pass that follows is the production one. It streams no
// chunks, so its stats report none.
func (t *Tree) rowUpdate(chunk data.Source, w int64) (UpdateStats, error) {
	var upd UpdateStats
	err := data.ForEach(chunk, func(tp data.Tuple) error {
		upd.TuplesSeen++
		return t.route(t.root, tp, w)
	})
	if err == nil {
		wk, stop := newPool(t.cfg.Parallelism).Start()
		defer stop()
		err = t.process(t.root, 0, nil, wk)
	}
	return upd, err
}
