// Package rainforest implements the RainForest family of scalable decision
// tree construction algorithms (Gehrke, Ramakrishnan, Ganti, VLDB 1998) —
// the baselines BOAT is evaluated against in the paper's Section 5:
// RF-Hybrid (fastest, largest AVC-group buffer) and RF-Vertical (smallest
// memory footprint, processing oversized AVC-groups attribute-group by
// attribute-group with additional scans).
//
// Both algorithms construct the tree level-synchronized, building the
// AVC-groups (attribute-value, class-label count sets) of as many
// unfinished nodes as fit in the AVC buffer per sequential scan of the
// training database — hence at least one scan per level of the tree, the
// cost profile BOAT's two-scan construction is measured against. Split
// selection is shared with every other builder in this repository, so
// RainForest produces the identical tree.
package rainforest

import (
	"errors"
	"fmt"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// Config parameterizes a RainForest build.
type Config struct {
	// Grow holds the split selection method and the stopping rules,
	// shared verbatim with the reference algorithm and BOAT.
	Grow inmem.Config
	// AVCBufferEntries is the AVC-group buffer size in entries (the
	// paper's experiments use 3 million for RF-Hybrid and 1.8 million
	// for RF-Vertical). 0 = unlimited (every level in one scan).
	AVCBufferEntries int64
	// Vertical selects RF-Vertical behavior: nodes whose AVC-group alone
	// exceeds the buffer are processed in several scans, one attribute
	// group (fitting the buffer) at a time, modeling RF-Vertical's
	// per-attribute temporary files.
	Vertical bool
	// TempDir and MemBudgetTuples control the buffers that collect
	// switch-over families (non-stop mode only).
	TempDir         string
	MemBudgetTuples int64
	// Stats receives scan accounting when non-nil.
	Stats *iostats.Stats
}

// BuildStats reports the cost profile of a build.
type BuildStats struct {
	// Scans is the number of sequential scans over the training database.
	Scans int64
	// Levels is the number of tree levels that required scanning the
	// database (levels whose nodes were all finalized from their parents'
	// AVC-groups are free and not counted; in-memory switch-over subtrees
	// are likewise excluded).
	Levels int
	// PeakAVCEntries is the largest number of AVC entries held at once.
	PeakAVCEntries int64
	// OversizedNodes counts nodes whose AVC-group alone exceeded the
	// buffer (forcing RF-Vertical's multi-scan attribute processing, or
	// an overflowing single scan for RF-Hybrid).
	OversizedNodes int64
	// InMemoryLeaves counts switch-over families finished in memory.
	InMemoryLeaves int64
}

// rfNode is a node under construction.
type rfNode struct {
	depth       int
	size        int64 // |F_n|, known from the parent's AVC-group
	classTotals []int64
	node        *tree.Node
	collect     *data.SpillBuffer // non-stop switch-over: family collection
}

// builder carries shared state across scans.
type builder struct {
	cfg      Config
	schema   *data.Schema
	src      data.Source
	budget   *data.MemBudget
	distinct []int64 // per-attribute distinct-value upper bounds
	stats    *BuildStats
	t        *tree.Tree
}

// Build constructs the decision tree over src.
func Build(src data.Source, cfg Config) (*tree.Tree, BuildStats, error) {
	var bs BuildStats
	if cfg.Grow.Method == nil {
		return nil, bs, errors.New("rainforest: Grow.Method is required")
	}
	schema := src.Schema()
	total, err := data.CountTuples(src)
	if err != nil {
		return nil, bs, err
	}
	b := &builder{
		cfg:      cfg,
		schema:   schema,
		src:      iostats.Tracked(src, cfg.Stats),
		budget:   data.NewMemBudget(cfg.MemBudgetTuples),
		distinct: make([]int64, len(schema.Attributes)),
		stats:    &bs,
	}
	for i, a := range schema.Attributes {
		if a.Kind == data.Categorical {
			b.distinct[i] = int64(a.Cardinality)
		} else {
			b.distinct[i] = total // pessimistic until measured at the root
		}
	}

	root := &rfNode{depth: 0, size: total, node: &tree.Node{}}
	b.t = &tree.Tree{Schema: schema, Root: root.node}
	open := []*rfNode{root}

	for len(open) > 0 {
		var pending, collects []*rfNode
		var next []*rfNode
		for _, n := range open {
			switch {
			case n.classTotals != nil && b.cfg.Grow.StopBeforeSplit(n.size, n.depth, n.classTotals):
				finalizeLeaf(n)
			case !cfg.Grow.StopAtThreshold && cfg.Grow.StopThreshold > 0 && n.size <= cfg.Grow.StopThreshold:
				// The family fits in memory: collect it during the next
				// scan and finish with the main-memory algorithm.
				n.collect = data.NewSpillBuffer(schema, cfg.TempDir, b.budget, cfg.Stats)
				collects = append(collects, n)
			default:
				pending = append(pending, n)
			}
		}
		if len(pending) > 0 || len(collects) > 0 {
			bs.Levels++ // a level that requires scanning
		}
		for len(pending) > 0 || len(collects) > 0 {
			batch, oversized, rest := b.planBatch(pending)
			if err := b.scanAndSplit(batch, oversized, collects, &next); err != nil {
				return nil, bs, err
			}
			pending = rest
			collects = nil // served by the scan just performed
		}
		open = next
	}
	return b.t, bs, nil
}

func finalizeLeaf(n *rfNode) {
	n.node.Crit = split.Split{}
	n.node.Left, n.node.Right = nil, nil
	n.node.ClassCounts = n.classTotals
	n.node.Label = tree.MajorityLabel(n.classTotals)
}

// estimateEntries upper-bounds a node's AVC-group entry count.
func (b *builder) estimateEntries(n *rfNode) int64 {
	var e int64
	for i, a := range b.schema.Attributes {
		if a.Kind == data.Categorical {
			e += int64(a.Cardinality)
			continue
		}
		d := b.distinct[i]
		if n.size < d {
			d = n.size
		}
		e += d
	}
	return e
}

// planBatch selects a prefix of pending nodes whose estimated AVC-groups
// fit the buffer together. If the first node alone exceeds the buffer it
// is returned as oversized (handled per algorithm variant).
func (b *builder) planBatch(pending []*rfNode) (batch []*rfNode, oversized *rfNode, rest []*rfNode) {
	if len(pending) == 0 {
		return nil, nil, nil
	}
	limit := b.cfg.AVCBufferEntries
	if limit <= 0 {
		return pending, nil, nil
	}
	if b.estimateEntries(pending[0]) > limit {
		b.stats.OversizedNodes++
		return nil, pending[0], pending[1:]
	}
	var used int64
	i := 0
	for ; i < len(pending); i++ {
		e := b.estimateEntries(pending[i])
		if used+e > limit && i > 0 {
			break
		}
		used += e
	}
	return pending[:i], nil, pending[i:]
}

// scanAndSplit performs one sequential scan (or several for an oversized
// RF-Vertical node), building the AVC-groups of the batch and collecting
// switch-over families, then computes and installs the splits.
func (b *builder) scanAndSplit(batch []*rfNode, oversized *rfNode,
	collects []*rfNode, next *[]*rfNode) error {
	if oversized != nil {
		if _, impurity := b.cfg.Grow.Method.(split.ImpurityBased); b.cfg.Vertical && impurity {
			return b.verticalSplit(oversized, collects, next)
		}
		// RF-Hybrid: build the oversized AVC-group in a single scan
		// regardless; the overflow is visible in PeakAVCEntries (the
		// paper sizes the RF-Hybrid buffer so this does not happen).
		batch = []*rfNode{oversized}
	}
	target := make(map[*tree.Node]*rfNode, len(batch)+len(collects))
	avcs := make(map[*rfNode]*split.AVCBuilder, len(batch))
	for _, n := range batch {
		target[n.node] = n
		avcs[n] = split.NewAVCBuilder(b.schema)
	}
	for _, n := range collects {
		target[n.node] = n
	}
	err := b.forEachRouted(target, func(n *rfNode, tp data.Tuple) error {
		if avc, ok := avcs[n]; ok {
			avc.Add(tp)
			return nil
		}
		return n.collect.Append(tp)
	})
	if err != nil {
		return err
	}
	var inUse int64
	for _, avc := range avcs {
		inUse += avc.Entries()
	}
	if inUse > b.stats.PeakAVCEntries {
		b.stats.PeakAVCEntries = inUse
	}
	for _, n := range batch {
		stats := avcs[n].Stats()
		delete(avcs, n)
		if n.depth == 0 {
			b.recordRootDistinct(stats)
		}
		b.installSplit(n, stats, next)
	}
	for _, n := range collects {
		if err := b.finishCollected(n); err != nil {
			return err
		}
	}
	return nil
}

// recordRootDistinct tightens the per-attribute distinct-value bounds from
// the root's AVC-group (a global upper bound for every deeper family).
func (b *builder) recordRootDistinct(stats *split.NodeStats) {
	for i, avc := range stats.Num {
		if avc == nil {
			continue
		}
		if int64(avc.Entries()) < b.distinct[i] {
			b.distinct[i] = int64(avc.Entries())
		}
	}
}

// installSplit computes the node's split from its AVC-group and creates
// the children (or finalizes the leaf).
func (b *builder) installSplit(n *rfNode, stats *split.NodeStats, next *[]*rfNode) {
	n.classTotals = stats.ClassTotals
	n.size = stats.Total()
	if b.cfg.Grow.StopBeforeSplit(n.size, n.depth, n.classTotals) {
		finalizeLeaf(n)
		return
	}
	best := b.cfg.Grow.Method.BestSplit(stats)
	if !best.Found {
		finalizeLeaf(n)
		return
	}
	leftTotals := leftClassTotals(stats, best)
	rightTotals := make([]int64, len(leftTotals))
	var leftSize, rightSize int64
	for c := range leftTotals {
		rightTotals[c] = stats.ClassTotals[c] - leftTotals[c]
		leftSize += leftTotals[c]
		rightSize += rightTotals[c]
	}
	n.node.Crit = best
	n.node.ClassCounts = stats.ClassTotals
	n.node.Label = tree.MajorityLabel(stats.ClassTotals)
	n.node.Left = &tree.Node{}
	n.node.Right = &tree.Node{}
	*next = append(*next,
		&rfNode{depth: n.depth + 1, size: leftSize, classTotals: leftTotals, node: n.node.Left},
		&rfNode{depth: n.depth + 1, size: rightSize, classTotals: rightTotals, node: n.node.Right})
}

// leftClassTotals computes the class totals of the left partition from the
// AVC-group.
func leftClassTotals(stats *split.NodeStats, s split.Split) []int64 {
	out := make([]int64, len(stats.ClassTotals))
	if s.Kind == data.Numeric {
		avc := stats.Num[s.Attr]
		for i, v := range avc.Values {
			if v > s.Threshold {
				break
			}
			for c, cnt := range avc.Counts[i] {
				out[c] += cnt
			}
		}
		return out
	}
	cat := stats.Cat[s.Attr]
	for code, row := range cat.Counts {
		if code < 64 && s.Subset&(1<<uint(code)) != 0 {
			for c, cnt := range row {
				out[c] += cnt
			}
		}
	}
	return out
}

// finishCollected completes a switch-over family with the main-memory
// algorithm.
func (b *builder) finishCollected(n *rfNode) error {
	tuples, err := data.ReadAll(n.collect)
	if err != nil {
		return err
	}
	n.collect.Close()
	n.collect = nil
	grow := b.cfg.Grow
	if grow.MaxDepth != 0 {
		grow.MaxDepth -= n.depth
		if grow.MaxDepth < 1 {
			grow.MaxDepth = -1
		}
	}
	sub := inmem.Build(b.schema, tuples, grow)
	*n.node = *sub.Root
	b.stats.InMemoryLeaves++
	return nil
}

// forEachRouted scans the database once, routing every tuple down the
// partial tree and invoking fn when it reaches a node in the target set.
// Every tuple must pass the domain rule first: the AVC-sets and the
// in-memory builder index their count tables with its codes and class.
func (b *builder) forEachRouted(target map[*tree.Node]*rfNode, fn func(*rfNode, data.Tuple) error) error {
	b.stats.Scans++
	return data.ForEach(b.src, func(tp data.Tuple) error {
		if err := b.schema.CheckDomain(tp); err != nil {
			return fmt.Errorf("rainforest: %w", err)
		}
		node := b.t.Root
		for {
			if rf, ok := target[node]; ok {
				return fn(rf, tp)
			}
			if !node.Crit.Found {
				return nil // finished leaf or a node served by another scan
			}
			if node.Crit.Left(tp) {
				node = node.Left
			} else {
				node = node.Right
			}
		}
	})
}
