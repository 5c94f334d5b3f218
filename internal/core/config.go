// Package core implements BOAT — the Bootstrapped Optimistic Algorithm
// for Tree construction of Gehrke, Ganti, Ramakrishnan and Loh (SIGMOD
// 1999): scalable decision tree construction in two scans over the
// training database, with statistically-derived coarse splitting criteria
// refined and verified against the full data, guaranteed to produce
// exactly the tree a traditional algorithm would produce, plus
// incremental maintenance under insertions and deletions (Section 4).
package core

import (
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"runtime"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/split"
)

// Config parameterizes BOAT.
type Config struct {
	// Method is the split selection method CL. BOAT is applicable to any
	// binary-split method; impurity-based methods (split.ImpurityBased)
	// are verified with the stamp-point lower bound of Lemma 3.1, and
	// moment-based methods (split.MomentBased, e.g. the QUEST-like
	// method) are verified by exact recomputation. Required.
	Method split.Method

	// SampleSize is |D'|, the in-memory sample drawn in one scan.
	// 0 selects max(1000, N/10) capped at 200000 (the paper's setting).
	SampleSize int
	// BootstrapTrees is b, the number of bootstrap repetitions
	// (paper: 20). 0 selects 20.
	BootstrapTrees int
	// SubsampleSize is the size of each bootstrap sample drawn with
	// replacement from D' (paper: 50000 of 200000). 0 selects
	// SampleSize/4 (minimum 1).
	SubsampleSize int
	// WidenFraction widens each confidence interval by this fraction of
	// its width on both ends; larger values trade bigger stuck sets S_n
	// for fewer interval escapes. 0, the default, keeps the raw bootstrap
	// min/max (see bootstrap.Config).
	WidenFraction float64

	// MinSplit and MaxDepth are the growth stopping rules, shared with
	// the reference algorithm (see inmem.Config).
	MinSplit int64
	MaxDepth int

	// StopThreshold is the family size at which construction switches to
	// the main-memory algorithm (the paper stops tree construction at
	// families that fit in memory; Section 5 uses 1.5M tuples). With
	// StopAtThreshold=true such families become leaves outright (the
	// performance-experiment methodology); otherwise their subtrees are
	// completed in memory, yielding the full reference tree. A frontier
	// or failed node's family above the threshold gets a recursive BOAT
	// invocation only when it spilled out of MemBudgetTuples; a resident
	// one is grown with one in-memory build (in stop mode it becomes a
	// fat leaf, refit in memory after each update that touches it).
	StopThreshold   int64
	StopAtThreshold bool

	// BucketBudget is the number of discretization boundaries per
	// (node, numeric attribute). 0 selects discretize.DefaultBudget.
	BucketBudget int

	// MemBudgetTuples bounds the tuples the tree's buffers (stuck sets
	// S_n and stored leaf families) keep in memory; the overflow spills
	// to temporary files in TempDir. 0 = unlimited. Ignored when Budget
	// is non-nil.
	MemBudgetTuples int64
	// Budget, when non-nil, is used instead of a fresh budget derived
	// from MemBudgetTuples. It lets callers share one budget across
	// builds and assert that every build — including failed ones —
	// releases all memory it acquired (Used() returns to its prior
	// value).
	Budget *data.MemBudget
	// TempDir is the directory for spill files ("" = os.TempDir()).
	TempDir string

	// FS, when non-nil, replaces the real filesystem for all spill and
	// model-persistence files. Tests and soak runs inject faults through
	// it (see internal/faultfs); production builds leave it nil.
	FS data.FS
	// SpillRetry bounds the retry-with-backoff applied to transient
	// spill-path faults. The zero value selects the defaults
	// (4 attempts, 500µs initial backoff, doubling).
	SpillRetry data.RetryPolicy

	// Seed drives sampling and bootstrapping. The output tree does not
	// depend on it (that is the point of BOAT), but run traces do.
	Seed int64

	// Stats, when non-nil, receives scan/tuple/byte accounting for the
	// primary training database and all spills.
	Stats *iostats.Stats

	// Trace, when non-nil, receives hierarchical build-lifecycle spans —
	// sampling, bootstrap-tree growth, coarse-tree intersection, the
	// cleanup scan and its pipeline stages, verification, subtree rebuilds,
	// leaf completion — with per-span wall-clock and (when Stats is also
	// set and shared with the tracer) iostats deltas. nil disables tracing
	// at zero cost: every span call is a nil-receiver no-op.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives build counters, gauges and
	// histograms (CI hit/miss per verified node, verification-failure
	// causes, stuck-set sizes, scan throughput, rebuild and
	// leaf-completion counts). nil disables metrics at zero cost.
	Metrics *obs.Registry
	// Logger, when non-nil, receives structured build progress records
	// (log/slog). nil discards them.
	Logger *slog.Logger

	// Parallelism is the number of workers of the one pool each Build,
	// Insert and Delete runs on: the caller's goroutine and Parallelism-1
	// helpers. Its bootstrap trees, chunk-router descents and leaf
	// completion fork on it, in-memory fits share their attribute passes
	// and subtrees, and recursive invocations fork on the same pool. 0
	// selects runtime.GOMAXPROCS(0); 1 runs these phases sequentially
	// in-line. The columnar decode pipeline keeps min(4, GOMAXPROCS)
	// workers at every setting. The tree is identical at every setting:
	// bootstrap RNGs derive from Seed + treeIndex, concurrent phases work
	// on disjoint subtrees, attributes or scratch, and every buffer
	// receives its tuples in stream order.
	Parallelism int

	// scanChunkRows is the row capacity of the columnar chunks the chunk
	// router streams the data in; 0 selects data.DefaultChunkRows. The
	// tree is identical at every setting (all statistics are exact
	// integer counts, and buffers receive their tuples in stream order
	// however the stream is cut), so only the package's tests set it.
	scanChunkRows int
}

// withDefaults validates and normalizes the configuration.
func (c Config) withDefaults(n int64) (Config, error) {
	if c.Method == nil {
		return c, errors.New("core: Config.Method is required")
	}
	switch c.Method.(type) {
	case split.ImpurityBased, split.MomentBased:
	default:
		return c, fmt.Errorf("core: method %q is neither impurity-based nor moment-based; BOAT cannot verify its coarse criteria", c.Method.Name())
	}
	if c.SampleSize <= 0 {
		s := n / 10
		if s < 1000 {
			s = 1000
		}
		if s > 200000 {
			s = 200000
		}
		c.SampleSize = int(s)
	}
	if c.BootstrapTrees <= 0 {
		c.BootstrapTrees = 20
	}
	if c.SubsampleSize <= 0 {
		c.SubsampleSize = c.SampleSize / 4
		if c.SubsampleSize < 1 {
			c.SubsampleSize = 1
		}
	}
	if c.WidenFraction < 0 {
		return c, fmt.Errorf("core: negative WidenFraction %v", c.WidenFraction)
	}
	if c.MinSplit < 0 || c.MaxDepth < 0 || c.StopThreshold < 0 {
		return c, errors.New("core: negative growth limits")
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	return c, nil
}

// chunkRows returns the effective scan chunk row capacity.
func (c Config) chunkRows() int {
	if c.scanChunkRows > 0 {
		return c.scanChunkRows
	}
	return data.DefaultChunkRows
}

// growConfig returns the reference growth rules derived from the config;
// depthOffset adjusts MaxDepth for subtrees rooted below the global root.
func (c Config) growConfig(depthOffset int) inmem.Config {
	g := inmem.Config{
		Method:          c.Method,
		MinSplit:        c.MinSplit,
		MaxDepth:        c.MaxDepth,
		StopThreshold:   c.StopThreshold,
		StopAtThreshold: c.StopAtThreshold,
	}
	if g.MaxDepth > 0 {
		g.MaxDepth -= depthOffset
		if g.MaxDepth < 1 {
			// Callers never build subtrees at or beyond MaxDepth; clamp
			// defensively so such a build yields a single leaf.
			g.MaxDepth = -1
		}
	}
	return g
}

// BuildStats reports what happened during a Build. It is read from the
// Build's event tally when the Build ends and never changes after:
// updates report their own counts in UpdateStats. Every count includes
// the Build's recursive BOAT invocations (see FrontierRebuilds).
type BuildStats struct {
	// TuplesSeen counts the tuples the cleanup scans streamed: |D|, plus
	// the family of each recursive invocation.
	TuplesSeen int64
	// SampleSize is |D'|.
	SampleSize int
	// CoarseNodes and Disagreements summarize the sampling phases, those
	// of recursive invocations included.
	CoarseNodes   int
	Disagreements int
	// FailedNodes counts coarse nodes whose verification failed
	// (Section 3.4), forcing a rebuild of their subtree. The FailXxx
	// fields break the failures down by cause; they sum to FailedNodes.
	FailedNodes int64
	// FailNoCandidate: no legal split point inside the confidence
	// interval (the split escaped it entirely).
	FailNoCandidate int64
	// FailBetterCat: an exactly evaluated categorical split beat the
	// coarse attribute (or the coarse categorical subset changed).
	FailBetterCat int64
	// FailBound: a stamp-point lower bound (Lemma 3.1) admitted a better
	// split outside the coarse criterion.
	FailBound int64
	// FailTie: a lower bound tied the chosen quality where the canonical
	// order might prefer the other candidate (conservative rebuild).
	FailTie int64
	// FailMoment: a moment-based method's exact recomputation
	// contradicted the coarse criterion.
	FailMoment int64
	// FrontierRebuilds counts recursive BOAT invocations: one per family
	// of a frontier or failed node that spilled out of MemBudgetTuples.
	FrontierRebuilds int64
	// SpillRebuilds counts subtrees rebuilt because a storage fault on
	// the spill path made the node's buffers untrustworthy; the rebuild
	// recovers from the still-scannable (poisoned) buffers, preserving
	// the exactness guarantee.
	SpillRebuilds int64
	// RebuildTuples counts tuples re-processed by rebuilds (the paper's
	// "additional scans over subsets of the data"): the families of
	// failed and spill-faulted nodes, and the spilled frontier families
	// leaf completion promotes to BOAT subtrees. It is the sum of the
	// tuples attribute of the build's rebuild spans.
	RebuildTuples int64
	// StuckTuples is the total size of the stuck sets S_n after the
	// cleanup scans, those of recursive invocations included.
	StuckTuples int64
	// InMemoryLeaves counts families grown with the main-memory
	// algorithm: switch-over leaves, and the resident families of
	// frontier and failed nodes.
	InMemoryLeaves int64
}

// UpdateStats reports what happened during an Insert or Delete.
type UpdateStats struct {
	// TuplesSeen is the chunk size streamed down the tree.
	TuplesSeen int64
	// Chunks is the number of columnar batches the update was streamed in.
	Chunks int64
	// RebuiltSubtrees counts nodes whose coarse criterion was invalidated
	// by the update (distribution change), rebuilding their subtree,
	// promotions of spilled fat leaves to BOAT subtrees, and subtrees
	// rebuilt after a storage fault.
	RebuiltSubtrees int64
	// RebuildTuples counts tuples re-processed by those rebuilds and
	// promotions: the sum of the tuples attribute of the update's
	// rebuild spans.
	RebuildTuples int64
	// MigratedTuples counts stuck tuples re-routed between children when
	// a final split point moved within its confidence interval.
	MigratedTuples int64
	// RefittedLeaves counts stored leaf families whose in-memory subtree
	// was re-grown.
	RefittedLeaves int64
	// FailNoCandidate, FailBetterCat, FailBound, FailTie and FailMoment
	// break the update's failed verifications down by cause, as the
	// BuildStats fields of the same names do for the Build.
	FailNoCandidate, FailBetterCat, FailBound, FailTie, FailMoment int64
}

func (c Config) newRNG() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }
