// Package inmem implements the classical greedy top-down decision tree
// induction schema of Figure 1 in the paper, operating on an in-memory
// family of tuples. It serves three roles: the ground-truth reference the
// scalable algorithms are tested against ("exactly the same tree"), the
// builder for bootstrap trees in BOAT's sampling phase, and the
// main-memory algorithm BOAT and RainForest switch to once a node's
// family fits in memory.
package inmem

import "github.com/boatml/boat/internal/split"

// Config holds the growth-phase stopping rules shared verbatim by every
// builder in this repository; identical rules are a precondition for the
// "identical tree" guarantee.
type Config struct {
	// Method is the split selection method CL. Required.
	Method split.Method
	// MinSplit stops growth at families smaller than this (minimum 2;
	// 0 means 2).
	MinSplit int64
	// MaxDepth limits the tree depth (0 = unlimited; negative = always
	// stop, used for subtree builds rooted at the depth limit).
	MaxDepth int
	// StopThreshold, with StopAtThreshold, turns families of at most this
	// many tuples into leaves without further splitting. This models the
	// performance-experiment methodology of Section 5, where tree
	// construction stops as soon as a family fits in memory.
	StopThreshold   int64
	StopAtThreshold bool
}

// StopBeforeSplit reports whether a node with the given family size,
// depth, and class histogram must become a leaf before split selection is
// even attempted.
func (c Config) StopBeforeSplit(total int64, depth int, classTotals []int64) bool {
	minSplit := c.MinSplit
	if minSplit < 2 {
		minSplit = 2
	}
	if total < minSplit {
		return true
	}
	if c.MaxDepth != 0 && depth >= c.MaxDepth {
		return true
	}
	if c.StopAtThreshold && total <= c.StopThreshold {
		return true
	}
	nonzero := 0
	for _, v := range classTotals {
		if v > 0 {
			nonzero++
		}
	}
	return nonzero <= 1 // pure node
}
