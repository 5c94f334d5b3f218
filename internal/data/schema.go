// Package data defines the training-database substrate used by every
// algorithm in this repository: schemas over numerical and categorical
// predictor attributes, tuples, in-memory and on-disk datasets with
// sequential scans, random sampling, and spillable tuple buffers that honor
// a memory budget by overflowing to temporary files.
//
// The on-disk tuple format mirrors the evaluation setup of the BOAT paper
// (Gehrke et al., SIGMOD 1999): fixed-size binary records, 4 bytes per
// field in the compact encoding (40 bytes per tuple for the 9-attribute
// synthetic schema of Agrawal et al.).
package data

import (
	"errors"
	"fmt"
	"math"
)

// Kind distinguishes the two attribute types of the paper's data model.
type Kind int

const (
	// Numeric attributes have an ordered numerical domain; splits take the
	// form X <= x for a split point x in dom(X).
	Numeric Kind = iota
	// Categorical attributes take values from a finite unordered set of
	// category codes 0..Cardinality-1; splits take the form X in Y for a
	// splitting subset Y.
	Categorical
)

// String returns the attribute kind name.
func (k Kind) String() string {
	switch k {
	case Numeric:
		return "numeric"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MaxCardinality bounds the domain size of a categorical attribute.
// Splitting subsets are represented as 64-bit masks, so categorical domains
// are limited to 64 categories. (The synthetic workloads of the paper use
// at most 20.)
const MaxCardinality = 64

// Attribute describes one predictor attribute.
type Attribute struct {
	Name string
	Kind Kind
	// Cardinality is the number of category codes of a categorical
	// attribute; it must be between 2 and MaxCardinality. Ignored for
	// numeric attributes.
	Cardinality int
}

// Schema describes the shape of a training database: an ordered list of
// predictor attributes and the number of class labels. Class labels are
// codes 0..ClassCount-1.
type Schema struct {
	Attributes []Attribute
	ClassCount int
}

// NewSchema validates the attribute list and class count and returns the
// schema. It is the only constructor that should be used; other packages
// assume a validated schema.
func NewSchema(attrs []Attribute, classCount int) (*Schema, error) {
	s := &Schema{Attributes: attrs, ClassCount: classCount}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// MustSchema is like NewSchema but panics on validation errors. Intended
// for statically known schemas (tests, the synthetic generator).
func MustSchema(attrs []Attribute, classCount int) *Schema {
	s, err := NewSchema(attrs, classCount)
	if err != nil {
		panic(err)
	}
	return s
}

// Validate checks structural invariants of the schema.
func (s *Schema) Validate() error {
	if s == nil {
		return errors.New("data: nil schema")
	}
	if len(s.Attributes) == 0 {
		return errors.New("data: schema needs at least one predictor attribute")
	}
	if s.ClassCount < 2 {
		return fmt.Errorf("data: schema needs at least two class labels, got %d", s.ClassCount)
	}
	seen := make(map[string]bool, len(s.Attributes))
	for i, a := range s.Attributes {
		if a.Name == "" {
			return fmt.Errorf("data: attribute %d has empty name", i)
		}
		if seen[a.Name] {
			return fmt.Errorf("data: duplicate attribute name %q", a.Name)
		}
		seen[a.Name] = true
		switch a.Kind {
		case Numeric:
		case Categorical:
			if a.Cardinality < 2 || a.Cardinality > MaxCardinality {
				return fmt.Errorf("data: attribute %q: cardinality %d out of range [2,%d]",
					a.Name, a.Cardinality, MaxCardinality)
			}
		default:
			return fmt.Errorf("data: attribute %q has unknown kind %d", a.Name, int(a.Kind))
		}
	}
	return nil
}

// NumAttrs returns the number of predictor attributes.
func (s *Schema) NumAttrs() int { return len(s.Attributes) }

// NumericIndexes returns the indexes of all numeric attributes, ascending.
func (s *Schema) NumericIndexes() []int {
	var out []int
	for i, a := range s.Attributes {
		if a.Kind == Numeric {
			out = append(out, i)
		}
	}
	return out
}

// CategoricalIndexes returns the indexes of all categorical attributes,
// ascending.
func (s *Schema) CategoricalIndexes() []int {
	var out []int
	for i, a := range s.Attributes {
		if a.Kind == Categorical {
			out = append(out, i)
		}
	}
	return out
}

// Equal reports whether two schemas describe the same shape.
func (s *Schema) Equal(o *Schema) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.ClassCount != o.ClassCount || len(s.Attributes) != len(o.Attributes) {
		return false
	}
	for i := range s.Attributes {
		a, b := s.Attributes[i], o.Attributes[i]
		if a.Name != b.Name || a.Kind != b.Kind {
			return false
		}
		if a.Kind == Categorical && a.Cardinality != b.Cardinality {
			return false
		}
	}
	return true
}

// CheckTuple verifies that a tuple conforms to the schema: correct arity,
// the domain rule of CheckDomain, and finite numeric values.
func (s *Schema) CheckTuple(t Tuple) error {
	if len(t.Values) != len(s.Attributes) {
		return fmt.Errorf("data: tuple has %d values, schema has %d attributes",
			len(t.Values), len(s.Attributes))
	}
	if err := s.CheckDomain(t); err != nil {
		return err
	}
	for i, a := range s.Attributes {
		// Non-finite values break the ordering invariants every
		// algorithm relies on (splits, sorted AVC-sets, histograms).
		if a.Kind == Numeric && (math.IsNaN(t.Values[i]) || math.IsInf(t.Values[i], 0)) {
			return fmt.Errorf("data: attribute %q: non-finite value %v", a.Name, t.Values[i])
		}
	}
	return nil
}

// CheckDomain applies the domain rule of every builder and router that
// indexes count tables by category code and class: each categorical code
// is a whole number in [0, Cardinality) and the class is in [0,
// ClassCount). A tuple outside the domain would panic in those tables or
// be counted under another code. Numeric values stay unchecked: NaN is a
// missing value and takes the pinned right edge. The error names the
// attribute and wraps ErrSchemaMismatch.
func (s *Schema) CheckDomain(t Tuple) error {
	for i, a := range s.Attributes {
		if a.Kind == Categorical && !validCode(t.Values[i], a.Cardinality) {
			return codeError(a, t.Values[i])
		}
	}
	if !validClass(t.Class, s.ClassCount) {
		return classError(t.Class, s.ClassCount)
	}
	return nil
}

// CheckChunkDomain applies CheckDomain's rule to every row of ch, column
// by column.
func (s *Schema) CheckChunkDomain(ch *Chunk) error {
	for i, a := range s.Attributes {
		if a.Kind != Categorical {
			continue
		}
		for _, v := range ch.Col(i) {
			if !validCode(v, a.Cardinality) {
				return codeError(a, v)
			}
		}
	}
	for _, c := range ch.Classes() {
		if !validClass(int(c), s.ClassCount) {
			return classError(int(c), s.ClassCount)
		}
	}
	return nil
}

// validCode and validClass are the domain rule. A valid code converts to
// an int in range and back to itself; NaN never compares equal, and an
// out-of-range conversion, whatever the platform makes of it, fails one
// of the two tests.
func validCode(v float64, card int) bool {
	c := int(v)
	return uint(c) < uint(card) && float64(c) == v
}

func validClass(c, classes int) bool { return c >= 0 && c < classes }

func codeError(a Attribute, v float64) error {
	return fmt.Errorf("data: attribute %q: categorical code %v outside [0,%d): %w",
		a.Name, v, a.Cardinality, ErrSchemaMismatch)
}

func classError(c, classes int) error {
	return fmt.Errorf("data: class label %d outside [0,%d): %w", c, classes, ErrSchemaMismatch)
}
