// Package tree defines the binary decision tree produced by every
// construction algorithm in this repository: internal nodes labeled with a
// splitting criterion (splitting attribute plus split point or splitting
// subset), leaf nodes labeled with a class, node predicates, tuple
// routing, classification, structural comparison, pretty printing, and a
// compact binary serialization.
package tree

import (
	"fmt"
	"strings"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/split"
)

// Node is one node of a binary decision tree. Internal nodes carry a
// splitting criterion and two children; leaves carry a class label.
// ClassCounts (optional but produced by all builders here) are the class
// histogram of the node's family of tuples F_n.
type Node struct {
	Crit        split.Split // Found==false for leaves
	Left, Right *Node
	Label       int
	ClassCounts []int64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return !n.Crit.Found }

// Tree is a binary decision tree classifier over a schema.
type Tree struct {
	Schema *data.Schema
	Root   *Node
}

// Classify routes the tuple to a leaf and returns its label. It is the
// one per-tuple walk, the reference every batch path (FlatTree.ClassifyChunk,
// the predictor) is tested against.
func (t *Tree) Classify(tp data.Tuple) int {
	n := t.Root
	for !n.IsLeaf() {
		if n.Crit.Left(tp) {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Label
}

// MisclassificationRate scans src and returns the fraction of tuples whose
// label the tree predicts incorrectly. The scan runs through the compiled
// flat layout and the chunked kernel — same predictions as a per-tuple
// Classify loop, a fraction of the cost.
func (t *Tree) MisclassificationRate(src data.Source) (float64, error) {
	f, err := Compile(t)
	if err != nil {
		return 0, err
	}
	var n, wrong int64
	out := make([]int, data.DefaultChunkRows)
	err = data.ForEachChunk(src, data.DefaultChunkRows, func(ch *data.Chunk) error {
		f.ClassifyChunk(ch, out)
		classes := ch.Classes()
		for i, c := range classes {
			if out[i] != int(c) {
				wrong++
			}
		}
		n += int64(len(classes))
		return nil
	})
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	return float64(wrong) / float64(n), nil
}

// NumNodes returns the total node count.
func (t *Tree) NumNodes() int { return countNodes(t.Root) }

func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// NumLeaves returns the leaf count.
func (t *Tree) NumLeaves() int { return countLeaves(t.Root) }

func countLeaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// Depth returns the maximum number of edges from the root to a leaf.
func (t *Tree) Depth() int { return depth(t.Root) }

func depth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Equal reports whether two trees are structurally identical: same shape,
// identical splitting criteria at every internal node, and identical
// labels at every leaf. This is the paper's "exactly the same tree"
// relation used throughout the test suite.
func (t *Tree) Equal(o *Tree) bool {
	if t == nil || o == nil {
		return t == o
	}
	if !t.Schema.Equal(o.Schema) {
		return false
	}
	return nodesEqual(t.Root, o.Root)
}

func nodesEqual(a, b *Node) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.IsLeaf() != b.IsLeaf() {
		return false
	}
	if a.IsLeaf() {
		return a.Label == b.Label
	}
	if !a.Crit.Equal(b.Crit) {
		return false
	}
	return nodesEqual(a.Left, b.Left) && nodesEqual(a.Right, b.Right)
}

// Diff returns a human-readable description of the first structural
// difference between two trees, or "" if they are equal. Used by tests to
// explain exactness failures.
func (t *Tree) Diff(o *Tree) string {
	return diffNodes(t.Root, o.Root, "root")
}

func diffNodes(a, b *Node, path string) string {
	switch {
	case a == nil && b == nil:
		return ""
	case a == nil || b == nil:
		return fmt.Sprintf("%s: one side missing", path)
	case a.IsLeaf() != b.IsLeaf():
		return fmt.Sprintf("%s: leaf=%v vs leaf=%v (crit %v vs %v)",
			path, a.IsLeaf(), b.IsLeaf(), a.Crit, b.Crit)
	case a.IsLeaf():
		if a.Label != b.Label {
			return fmt.Sprintf("%s: label %d vs %d", path, a.Label, b.Label)
		}
		return ""
	case !a.Crit.Equal(b.Crit):
		return fmt.Sprintf("%s: criterion %v vs %v", path, a.Crit, b.Crit)
	}
	if d := diffNodes(a.Left, b.Left, path+".L"); d != "" {
		return d
	}
	return diffNodes(a.Right, b.Right, path+".R")
}

// String renders the tree with attribute names, one node per line.
func (t *Tree) String() string {
	var sb strings.Builder
	printNode(&sb, t.Schema, t.Root, 0)
	return sb.String()
}

func printNode(sb *strings.Builder, schema *data.Schema, n *Node, indent int) {
	pad := strings.Repeat("  ", indent)
	if n == nil {
		fmt.Fprintf(sb, "%s<nil>\n", pad)
		return
	}
	if n.IsLeaf() {
		fmt.Fprintf(sb, "%sleaf class=%d counts=%v\n", pad, n.Label, n.ClassCounts)
		return
	}
	fmt.Fprintf(sb, "%s%s\n", pad, n.Crit.DescribeWith(schema))
	printNode(sb, schema, n.Left, indent+1)
	printNode(sb, schema, n.Right, indent+1)
}

// MajorityLabel returns the majority class of a count vector with
// deterministic tie-breaking (smallest class index wins ties).
func MajorityLabel(counts []int64) int {
	best, bestN := 0, int64(-1)
	for c, n := range counts {
		if n > bestN {
			best, bestN = c, n
		}
	}
	return best
}
