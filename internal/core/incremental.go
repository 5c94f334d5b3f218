package core

import (
	"errors"
	"fmt"
	"time"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/iostats"
)

// Insert incorporates a new chunk of training data into the tree
// (Section 4): the chunk is streamed down the tree exactly as during the
// cleanup scan — updating every per-node statistic, sticking in-interval
// tuples into the S_n sets — and then the same top-down verification /
// refinement pass as the static build runs over the whole tree. The
// resulting tree is guaranteed identical to rebuilding from scratch on
// D ∪ chunk. Only one scan of the chunk is performed; the original
// training database is never re-read unless a coarse criterion is
// invalidated, in which case the affected subtree is rebuilt from the
// buffers the tree maintains.
//
// Insert is safe for concurrent use: updates are serialized on the tree's
// update mutex (see the concurrency contract on Tree), and predictions
// keep serving the last published Snapshot while the update is in flight.
// An update that fails before any of its chunk reached the tree leaves the
// tree as it was; one that fails later breaks it (ErrBrokenModel).
func (t *Tree) Insert(chunk data.Source) (UpdateStats, error) {
	return t.update(chunk, +1)
}

// Delete removes an expired chunk from the training data (tuples must be
// present; dangling deletions are reported as errors). Handled
// symmetrically to Insert: counts are decremented, stuck and stored
// tuples are removed, and the verification pass rebuilds whatever the
// deletions invalidated. The result is guaranteed identical to rebuilding
// from scratch on D minus the chunk. Like Insert, Delete serializes on
// the update mutex and is safe for concurrent use.
func (t *Tree) Delete(chunk data.Source) (UpdateStats, error) {
	return t.update(chunk, -1)
}

// ErrBrokenModel reports a model that an update left part-way: the update
// failed after its chunk reached the router, so the tree holds some of
// the chunk's effect and no longer equals the reference on any multiset.
// From then on Insert, Delete, Save and SaveFile fail with an error
// wrapping it and the first failure, Ready and CheckConsistency report
// it, and Snapshot keeps serving the last published epoch. Rebuild or
// reload the model to recover.
var ErrBrokenModel = errors.New("core: broken model")

func (t *Tree) update(chunk data.Source, w int64) (UpdateStats, error) {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	if t.root == nil {
		return UpdateStats{}, errors.New("core: tree is closed")
	}
	if t.broken != nil {
		return UpdateStats{}, t.broken
	}
	if !t.schema.Equal(chunk.Schema()) {
		return UpdateStats{}, data.ErrSchemaMismatch
	}
	t.op = &tally{fit: evRefits}

	name := "insert"
	if w < 0 {
		name = "delete"
	}
	wk, stop := newPool(t.cfg.Parallelism).Start()
	defer stop()
	updSpan := t.cfg.Trace.Start(name)
	defer updSpan.End()
	start := time.Now()

	tracked := iostats.Tracked(chunk, t.cfg.Stats)
	routeSpan := updSpan.Start("route-chunk")
	r := t.newChunkRouter(w)
	sc := t.scratch.Get().(*routeScratch)
	err := t.stream(r, tracked, t.root, sc, routeSpan, wk)
	t.scratch.Put(sc)
	t.note(evUpdateSkips, r.skips.Load())
	routeSpan.SetAttr("tuples", r.tuples)
	routeSpan.SetAttr("chunks", r.chunks)
	routeSpan.End()
	if err != nil {
		err = fmt.Errorf("core: streaming update chunk: %w", err)
		if r.chunks == 0 {
			// Nothing reached the router (a read or domain error on the
			// first chunk): the tree is untouched.
			return t.op.updateStats(r), err
		}
		return t.op.updateStats(r), t.breakModel(err)
	}
	if err := t.process(t.root, 0, updSpan, wk); err != nil {
		return t.op.updateStats(r), t.breakModel(fmt.Errorf("core: post-update processing: %w", err))
	}
	if err := compactBuffers(t.root); err != nil {
		return t.op.updateStats(r), t.breakModel(fmt.Errorf("core: compacting buffers: %w", err))
	}
	upd := t.op.updateStats(r)

	// The tree is consistent again: advance the epoch, and republish
	// eagerly when serving has started so readers flip to the new epoch
	// without paying the materialization themselves. A failed update never
	// reaches this point — readers then keep serving the last published
	// epoch (see the failure semantics in DESIGN.md §14).
	t.epoch.Add(1)
	if t.snap.Load() != nil {
		if _, err := t.publishLocked(); err != nil {
			return upd, fmt.Errorf("core: publishing update snapshot: %w", err)
		}
	}

	elapsed := time.Since(start)
	secs := elapsed.Seconds()
	t.met.updTuples.Add(upd.TuplesSeen)
	t.met.updChunks.Add(upd.Chunks)
	t.met.updLatency.Observe(elapsed)
	if secs > 0 {
		t.met.updRate.Set(float64(upd.TuplesSeen) / secs)
	}
	t.log.Info("update finished", "op", name, "tuples", upd.TuplesSeen,
		"chunks", upd.Chunks, "epoch", t.epoch.Load(),
		"rebuilt_subtrees", upd.RebuiltSubtrees, "migrated_tuples", upd.MigratedTuples,
		"refitted_leaves", upd.RefittedLeaves)
	return upd, nil
}

// breakModel marks the tree broken by an update that failed part-way
// (see ErrBrokenModel) and returns the error every later update and save
// returns. Callers hold updateMu.
func (t *Tree) breakModel(cause error) error {
	t.broken = fmt.Errorf("%w: %w", ErrBrokenModel, cause)
	t.log.Error("update failed part-way; model broken", "err", cause)
	return t.broken
}
