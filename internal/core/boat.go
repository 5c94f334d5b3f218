package core

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"github.com/boatml/boat/internal/bootstrap"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// Tree is a stateful BOAT tree: beyond the decision tree itself it retains
// the per-node coarse criteria, cleanup statistics, stuck sets S_n and
// stored leaf families, which is what makes exact incremental maintenance
// possible (Section 4). Obtain one with Build; materialize the plain
// decision tree with Tree(); update it with Insert and Delete; release its
// temporary resources with Close.
//
// Concurrency contract: Insert, Delete, Tree, Snapshot, Save, SaveFile,
// Close and CheckConsistency are safe for concurrent use — all tree
// mutation is serialized on an internal update mutex, and concurrent
// Insert/Delete calls simply queue (each applies its full chunk
// atomically with respect to the others; a save writes the model as of
// one epoch). Snapshot's fast path is lock-free: once a snapshot of the
// current epoch has been published, readers load it from an atomic
// pointer without contending with in-flight updates, and keep serving the
// last consistent epoch until the next update completes. BuildStats and
// Schema are likewise safe to call at any time.
type Tree struct {
	cfg    Config
	schema *data.Schema
	root   *bnode
	budget *data.MemBudget

	impurityBased split.ImpurityBased
	momentBased   split.MomentBased

	// op tallies the events of the operation in progress (see note): the
	// Build's from newTree on, then a fresh one per Insert or Delete,
	// replaced before the operation's pool starts. buildStats is read
	// from the Build's tally when it ends and never changes after (zero
	// for a loaded model). BOAT-in-BOAT recursion depth is threaded
	// through the call chain as an explicit parameter (rdepth), not
	// stored here, so concurrent rebuilds cannot observe each other's
	// depth.
	op         *tally
	buildStats BuildStats

	// updateMu serializes all structural mutation and inspection of the
	// tree after Build: Insert/Delete (the whole update, scan through
	// verification), Tree(), the Snapshot slow path, Save, Ready, Close
	// and CheckConsistency. Build itself runs before the Tree is shared,
	// so it does not take it.
	updateMu sync.Mutex
	// broken records why an update failed after its chunk reached the
	// router, leaving the tree part-way through the update; it wraps
	// ErrBrokenModel and the update's error (guarded by updateMu). A
	// broken tree refuses every further update and save (see update).
	broken error
	// scratch pools the chunk router's per-level partition scratch
	// (*routeScratch) across streams, pushes, migrations and forked
	// descents; concurrent recursive invocations each take their own.
	scratch sync.Pool
	// epoch counts completed updates; snap caches the published snapshot
	// of the epoch it carries. Readers serve snap lock-free and detect
	// staleness by comparing epochs (see Snapshot).
	epoch atomic.Uint64
	snap  atomic.Pointer[Snapshot]

	// seedCounter derives distinct bootstrap seeds for rebuilds; atomic
	// because concurrent frontier rebuilds each draw fresh seeds. The
	// output tree does not depend on the drawn values (BOAT's exactness
	// guarantee), only run traces do.
	seedCounter atomic.Int64

	// met caches the metrics-registry instruments (all nil, hence no-op,
	// when cfg.Metrics is nil) and log is the resolved structured logger
	// (never nil; discards when cfg.Logger is nil).
	met metricSet
	log *slog.Logger
}

// spillEnv assembles the spill environment for a buffer charged against
// budget: the tree's temp dir, recorder, filesystem, and retry policy.
func (t *Tree) spillEnv(budget *data.MemBudget) data.SpillEnv {
	return data.SpillEnv{
		Dir:    t.cfg.TempDir,
		Budget: budget,
		Rec:    t.cfg.Stats,
		FS:     t.cfg.FS,
		Retry:  t.cfg.SpillRetry,
		Log:    t.cfg.Logger,
	}
}

// newTree validates cfg for a database of n tuples (withDefaults) and
// returns an empty tree over schema: the shared memory budget, the metric
// instruments, the logger, the method's verification interface and the
// router's scratch pool resolved. Build, NewScanBench and Load all start
// here.
func newTree(schema *data.Schema, cfg Config, n int64) (*Tree, error) {
	cfg, err := cfg.withDefaults(n)
	if err != nil {
		return nil, err
	}
	budget := cfg.Budget
	if budget == nil {
		budget = data.NewMemBudget(cfg.MemBudgetTuples)
	}
	t := &Tree{
		cfg:    cfg,
		schema: schema,
		budget: budget,
		op:     &tally{fit: evFits},
		met:    newMetricSet(cfg.Metrics),
		log:    resolveLogger(cfg.Logger),
	}
	// withDefaults admits only methods with one of the two interfaces.
	t.impurityBased, _ = cfg.Method.(split.ImpurityBased)
	t.momentBased, _ = cfg.Method.(split.MomentBased)
	rows := cfg.chunkRows()
	t.scratch.New = func() any { return newRouteScratch(rows) }
	return t, nil
}

// Build constructs the BOAT tree over the training database src.
//
// The algorithm makes exactly two sequential scans over src (plus
// occasional re-processing of buffered subsets when verification fails):
// scan one draws the sample D' for the sampling phase; scan two is the
// cleanup scan that streams every tuple down the coarse tree.
func Build(src data.Source, cfg Config) (*Tree, error) {
	n, err := data.CountTuples(src) // known without scanning for all built-in sources
	if err != nil {
		return nil, err
	}
	t, err := newTree(src.Schema(), cfg, n)
	if err != nil {
		return nil, err
	}
	wk, stop := newPool(t.cfg.Parallelism).Start()
	defer stop()
	buildSpan := cfg.Trace.Start("build")
	defer buildSpan.End()
	start := time.Now()
	cfg = t.cfg
	buildSpan.SetAttr("tuples", n)
	buildSpan.SetAttr("parallelism", cfg.Parallelism)
	buildSpan.SetAttr("chunk_rows", cfg.chunkRows())
	t.log.Debug("build started", "tuples", n, "sample_size", cfg.SampleSize,
		"parallelism", cfg.Parallelism, "method", cfg.Method.Name())

	tracked := iostats.Tracked(src, cfg.Stats)

	// Sampling phase (scan 1): sample D', bootstrap, coarse criteria.
	sampleSpan := buildSpan.Start("sampling")
	sample, err := t.drawSample(tracked)
	sampleSpan.SetAttr("sample_size", len(sample))
	sampleSpan.End()
	if err != nil {
		return nil, err
	}
	root, err := t.buildFromSample(tracked, sample, n, 0, 0, buildSpan, wk)
	if err != nil {
		t.log.Error("build failed", "err", err)
		return nil, err
	}
	t.root = root
	t.buildStats = t.op.buildStats(len(sample))
	bs := t.buildStats
	t.log.Info("build finished", "seconds", time.Since(start).Seconds(),
		"tuples", bs.TuplesSeen, "coarse_nodes", bs.CoarseNodes,
		"failed_nodes", bs.FailedNodes, "stuck_tuples", bs.StuckTuples,
		"frontier_rebuilds", bs.FrontierRebuilds)
	return t, nil
}

// drawSample is scan 1: a reservoir sample of src. Bootstrap indexes its
// count tables with the sampled codes and classes, so every sampled tuple
// must pass the domain rule of the chunk router (data.Schema.CheckDomain)
// first.
func (t *Tree) drawSample(src data.Source) ([]data.Tuple, error) {
	sample, err := data.ReservoirSample(src, t.cfg.SampleSize, t.cfg.newRNG())
	if err != nil {
		return nil, fmt.Errorf("core: sampling phase: %w", err)
	}
	for _, tp := range sample {
		if err := t.schema.CheckDomain(tp); err != nil {
			return nil, fmt.Errorf("core: sampling phase: %w", err)
		}
	}
	return sample, nil
}

// buildFromSample runs the sampling phase (given the already-drawn
// sample), the cleanup scan over src, and top-down processing, returning
// the resulting subtree rooted at the given depth. It is shared by Build
// and by recursive rebuild invocations; rdepth is the BOAT-in-BOAT
// recursion depth of this invocation, parent the enclosing trace span
// (the build root, or a rebuild span) and wk the pool worker running it.
func (t *Tree) buildFromSample(src data.Source, sample []data.Tuple, n int64, depth, rdepth int, parent *obs.Span, wk *inmem.Worker) (*bnode, error) {
	root, err := t.skeleton(sample, n, depth, parent, wk)
	if err != nil {
		return nil, err
	}

	// Cleanup scan (scan 2): stream every tuple down the coarse tree (see
	// scan.go). On any error the skeleton's buffers (and their temp files)
	// are released before returning, so a failed build never leaks.
	scanSpan := parent.Start("cleanup-scan")
	seen, err := t.cleanupScan(src, root, scanSpan, wk)
	scanSpan.SetAttr("tuples", seen)
	if err != nil {
		scanSpan.End()
		closeSubtree(root)
		return nil, fmt.Errorf("core: cleanup scan: %w", err)
	}
	stuck := t.stuckSets(root)
	scanSpan.SetAttr("stuck", stuck)
	scanSpan.End()
	t.note(evScanTuples, seen)
	t.note(evStuckTuples, stuck)
	t.log.Debug("cleanup scan finished", "tuples", seen, "stuck", stuck, "rdepth", rdepth)

	// Top-down processing: exact splits, verification, completion.
	procSpan := parent.Start("process")
	err = t.process(root, rdepth, procSpan, wk)
	procSpan.End()
	if err != nil {
		closeSubtree(root)
		return nil, fmt.Errorf("core: processing: %w", err)
	}
	return root, nil
}

// skeleton runs the bootstrap over the sample of a database (or family)
// of n tuples, its trees forked on wk, and turns the resulting coarse
// tree into the skeleton the cleanup scan fills, its root at the given
// depth. parent is the enclosing trace span (nil ok).
func (t *Tree) skeleton(sample []data.Tuple, n int64, depth int, parent *obs.Span, wk *inmem.Worker) (*bnode, error) {
	bootSpan := parent.Start("bootstrap")
	bcfg := bootstrap.Config{
		Trees:         t.cfg.BootstrapTrees,
		SubsampleSize: t.cfg.SubsampleSize,
		WidenFraction: t.cfg.WidenFraction,
		TreeConfig:    t.bootstrapGrowConfig(n),
		Seed:          t.cfg.Seed + 104729*t.seedCounter.Add(1),
		Span:          bootSpan,
	}
	coarse, bstats, err := bootstrap.BuildCoarse(t.schema, sample, bcfg, wk)
	bootSpan.SetAttr("coarse_nodes", bstats.CoarseNodes)
	bootSpan.SetAttr("disagreements", bstats.Disagreements)
	bootSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: bootstrap: %w", err)
	}
	t.note(evCoarseNodes, int64(bstats.CoarseNodes))
	t.note(evDisagreements, int64(bstats.Disagreements))

	skelSpan := parent.Start("skeleton")
	defer skelSpan.End()
	return t.skeletonFromCoarse(coarse, sample, depth)
}

// newPool constructs the one pool of Parallelism workers that each Build,
// Insert, Delete and ScanBench pass forks every phase on, recursive
// invocations included; tests swap it to count the pools. Build and
// update start it before their trace span and stop it after, so the wait
// for its helpers is no part of the traced operation.
var newPool = inmem.NewPool

// bootstrapGrowConfig derives the growth rules for bootstrap trees: the
// family-size switch threshold is scaled by the sampling fraction so the
// coarse tree reaches (approximately) the same depth the final tree will
// have above the main-memory switch.
func (t *Tree) bootstrapGrowConfig(n int64) (g inmem.Config) {
	g = t.cfg.growConfig(0)
	g.StopAtThreshold = true
	if t.cfg.StopThreshold > 0 && n > 0 {
		scaled := t.cfg.StopThreshold * int64(t.cfg.SubsampleSize) / n
		if scaled < 1 {
			scaled = 1
		}
		g.StopThreshold = scaled
	} else {
		g.StopAtThreshold = false
	}
	return g
}

// stuckSets returns the total size of the stuck sets S_n of the subtree
// rooted at n after its cleanup scan, feeding each size into the
// per-node stuck-set size histogram.
func (t *Tree) stuckSets(n *bnode) int64 {
	if n == nil || n.isLeaf() {
		return 0
	}
	var s int64
	if n.pending != nil {
		s = n.pending.Len()
		t.met.stuckPerNode.Observe(s)
	}
	return s + t.stuckSets(n.left) + t.stuckSets(n.right)
}

// Schema returns the training schema.
func (t *Tree) Schema() *data.Schema { return t.schema }

// BuildStats returns the statistics of the original Build, fixed when it
// ended; updates report theirs in UpdateStats. Zero for a loaded model.
func (t *Tree) BuildStats() BuildStats { return t.buildStats }

// Tree materializes the current decision tree. The result is a plain
// value: later Insert/Delete calls do not mutate previously returned
// trees. Safe for concurrent use (serializes with in-flight updates).
func (t *Tree) Tree() *tree.Tree {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	return &tree.Tree{Schema: t.schema, Root: materialize(t.root)}
}

// Snapshot is an immutable, consistent view of the tree as of one update
// epoch: the materialized decision tree plus its compiled flat form for
// batched inference. Snapshots are never mutated after publication;
// holders may keep serving from one for as long as they like.
type Snapshot struct {
	// Epoch identifies the update generation: it starts at 0 after Build
	// and increments once per completed Insert or Delete.
	Epoch uint64
	// Tree is the materialized decision tree of this epoch.
	Tree *tree.Tree
	// Flat is the compiled (SoA) form of Tree, for the columnar inference
	// path.
	Flat *tree.FlatTree
}

// Snapshot returns the current epoch's immutable snapshot, publishing one
// if none exists yet. The fast path is lock-free: once a snapshot of the
// current epoch is published, concurrent callers load it from an atomic
// pointer without blocking — in particular, while an Insert or Delete is
// in flight, Snapshot keeps returning the last consistent epoch. After
// serving has started (any successful Snapshot call), completed updates
// republish eagerly, so readers flip to new epochs without paying the
// materialization cost themselves.
func (t *Tree) Snapshot() (*Snapshot, error) {
	if s := t.snap.Load(); s != nil && s.Epoch == t.epoch.Load() {
		return s, nil
	}
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	return t.publishLocked()
}

// publishLocked materializes and compiles the current tree and stores it
// as the published snapshot. Callers must hold updateMu.
func (t *Tree) publishLocked() (*Snapshot, error) {
	if t.root == nil {
		return nil, fmt.Errorf("core: closed tree")
	}
	// Re-check under the lock: a concurrent Snapshot call (or the update
	// that just finished) may have published this epoch already.
	epoch := t.epoch.Load()
	if s := t.snap.Load(); s != nil && s.Epoch == epoch {
		return s, nil
	}
	if t.broken != nil {
		// Keep serving the last published epoch; never publish the tree a
		// failed update left behind.
		if s := t.snap.Load(); s != nil {
			return s, nil
		}
		return nil, t.broken
	}
	mt := &tree.Tree{Schema: t.schema, Root: materialize(t.root)}
	flat, err := tree.Compile(mt)
	if err != nil {
		return nil, fmt.Errorf("core: compiling snapshot: %w", err)
	}
	s := &Snapshot{Epoch: epoch, Tree: mt, Flat: flat}
	t.snap.Store(s)
	t.met.epochSwaps.Inc()
	t.met.epochGauge.Set(float64(epoch))
	return s, nil
}

// Ready reports whether the tree is fit to serve and accept updates: a
// consistent snapshot must have been published (readers have an epoch to
// route through), no update may have broken the tree (ErrBrokenModel),
// and no spill buffer may be poisoned by a permanent storage fault. It
// backs the diagnostics server's /readyz probe.
//
// The checks serialize with in-flight updates on the update mutex, so a
// probe landing mid-Insert waits for the update to complete — a readiness
// probe observing a half-applied update would be meaningless.
func (t *Tree) Ready() error {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	switch {
	case t.root == nil:
		return fmt.Errorf("core: not ready: tree is closed")
	case t.broken != nil:
		return fmt.Errorf("core: not ready: %w", t.broken)
	case t.snap.Load() == nil:
		return fmt.Errorf("core: not ready: no snapshot epoch published yet")
	}
	return poisonCheck(t.root)
}

// poisonCheck walks the tree's buffers for poisoned spill state.
func poisonCheck(n *bnode) error {
	if n == nil {
		return nil
	}
	if n.isLeaf() {
		if n.family != nil {
			if err := n.family.err(); err != nil {
				return fmt.Errorf("core: not ready: poisoned leaf family: %w", err)
			}
		}
		return nil
	}
	if n.pending != nil {
		if err := n.pending.Err(); err != nil {
			return fmt.Errorf("core: not ready: poisoned stuck set: %w", err)
		}
	}
	if n.pushed != nil {
		if err := n.pushed.Err(); err != nil {
			return fmt.Errorf("core: not ready: poisoned pushed set: %w", err)
		}
	}
	if err := poisonCheck(n.left); err != nil {
		return err
	}
	return poisonCheck(n.right)
}

func materialize(n *bnode) *tree.Node {
	if n == nil {
		return nil
	}
	if n.isLeaf() {
		if n.subtree != nil {
			return cloneTreeNode(n.subtree)
		}
		counts := make([]int64, len(n.classCounts))
		copy(counts, n.classCounts)
		return &tree.Node{Label: tree.MajorityLabel(counts), ClassCounts: counts}
	}
	counts := make([]int64, len(n.classCounts))
	copy(counts, n.classCounts)
	return &tree.Node{
		Crit:        n.crit,
		Left:        materialize(n.left),
		Right:       materialize(n.right),
		Label:       tree.MajorityLabel(counts),
		ClassCounts: counts,
	}
}

func cloneTreeNode(n *tree.Node) *tree.Node {
	if n == nil {
		return nil
	}
	counts := make([]int64, len(n.ClassCounts))
	copy(counts, n.ClassCounts)
	return &tree.Node{
		Crit:        n.Crit,
		Left:        cloneTreeNode(n.Left),
		Right:       cloneTreeNode(n.Right),
		Label:       n.Label,
		ClassCounts: counts,
	}
}

// Close releases all temporary resources (spill files, buffers). Further
// updates and Snapshot calls fail, but snapshots handed out earlier stay
// valid — they hold no tree resources, so readers already serving from
// one are unaffected.
func (t *Tree) Close() error {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	closeSubtree(t.root)
	t.root = nil
	t.snap.Store(nil)
	return nil
}

// CheckConsistency validates internal invariants (used by tests). A
// broken tree fails it with its ErrBrokenModel error.
func (t *Tree) CheckConsistency() error {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	if t.root == nil {
		return fmt.Errorf("core: closed tree")
	}
	if t.broken != nil {
		return t.broken
	}
	return t.root.checkConsistency(t.schema)
}
