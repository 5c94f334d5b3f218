package data

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func twoAttrSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema([]Attribute{
		{Name: "x", Kind: Numeric},
		{Name: "c", Kind: Categorical, Cardinality: 4},
	}, 2)
}

func TestNewSchemaValid(t *testing.T) {
	s, err := NewSchema([]Attribute{
		{Name: "a", Kind: Numeric},
		{Name: "b", Kind: Categorical, Cardinality: 2},
	}, 3)
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if s.NumAttrs() != 2 {
		t.Errorf("NumAttrs = %d, want 2", s.NumAttrs())
	}
}

func TestNewSchemaErrors(t *testing.T) {
	cases := []struct {
		name    string
		attrs   []Attribute
		classes int
		wantSub string
	}{
		{"no attributes", nil, 2, "at least one"},
		{"one class", []Attribute{{Name: "a", Kind: Numeric}}, 1, "two class"},
		{"empty name", []Attribute{{Name: "", Kind: Numeric}}, 2, "empty name"},
		{"duplicate name", []Attribute{{Name: "a", Kind: Numeric}, {Name: "a", Kind: Numeric}}, 2, "duplicate"},
		{"cardinality low", []Attribute{{Name: "a", Kind: Categorical, Cardinality: 1}}, 2, "cardinality"},
		{"cardinality high", []Attribute{{Name: "a", Kind: Categorical, Cardinality: 65}}, 2, "cardinality"},
		{"bad kind", []Attribute{{Name: "a", Kind: Kind(9)}}, 2, "unknown kind"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewSchema(tc.attrs, tc.classes)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not contain %q", err, tc.wantSub)
			}
		})
	}
}

func TestSchemaIndexes(t *testing.T) {
	s := MustSchema([]Attribute{
		{Name: "n1", Kind: Numeric},
		{Name: "c1", Kind: Categorical, Cardinality: 3},
		{Name: "n2", Kind: Numeric},
		{Name: "c2", Kind: Categorical, Cardinality: 5},
	}, 2)
	num := s.NumericIndexes()
	if len(num) != 2 || num[0] != 0 || num[1] != 2 {
		t.Errorf("NumericIndexes = %v", num)
	}
	cat := s.CategoricalIndexes()
	if len(cat) != 2 || cat[0] != 1 || cat[1] != 3 {
		t.Errorf("CategoricalIndexes = %v", cat)
	}
}

func TestSchemaEqual(t *testing.T) {
	a := twoAttrSchema(t)
	b := twoAttrSchema(t)
	if !a.Equal(b) {
		t.Error("identical schemas not Equal")
	}
	c := MustSchema([]Attribute{
		{Name: "x", Kind: Numeric},
		{Name: "c", Kind: Categorical, Cardinality: 5},
	}, 2)
	if a.Equal(c) {
		t.Error("schemas with different cardinalities reported Equal")
	}
	d := MustSchema([]Attribute{
		{Name: "x", Kind: Numeric},
		{Name: "c", Kind: Categorical, Cardinality: 4},
	}, 3)
	if a.Equal(d) {
		t.Error("schemas with different class counts reported Equal")
	}
	if a.Equal(nil) {
		t.Error("schema Equal(nil) = true")
	}
}

func TestCheckTuple(t *testing.T) {
	s := twoAttrSchema(t)
	good := Tuple{Values: []float64{1.5, 2}, Class: 1}
	if err := s.CheckTuple(good); err != nil {
		t.Errorf("valid tuple rejected: %v", err)
	}
	cases := []struct {
		name string
		tp   Tuple
	}{
		{"wrong arity", Tuple{Values: []float64{1}, Class: 0}},
		{"class high", Tuple{Values: []float64{1, 2}, Class: 2}},
		{"class negative", Tuple{Values: []float64{1, 2}, Class: -1}},
		{"cat code high", Tuple{Values: []float64{1, 4}, Class: 0}},
		{"cat code fractional", Tuple{Values: []float64{1, 1.5}, Class: 0}},
		{"cat code negative", Tuple{Values: []float64{1, -1}, Class: 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := s.CheckTuple(tc.tp); err == nil {
				t.Error("expected error")
			}
		})
	}
}

// TestCheckDomain: the builders' domain rule rejects a categorical code
// outside [0, Cardinality), a fractional or NaN code and a class outside
// [0, ClassCount) with an error wrapping ErrSchemaMismatch that names the
// attribute or the class, on a tuple and on a chunk alike; numeric values,
// NaN and infinities included, are not its business.
func TestCheckDomain(t *testing.T) {
	s := twoAttrSchema(t)
	for _, good := range []Tuple{
		{Values: []float64{1.5, 0}, Class: 0},
		{Values: []float64{math.NaN(), 3}, Class: 1},
		{Values: []float64{math.Inf(-1), 2}, Class: 1},
	} {
		if err := s.CheckDomain(good); err != nil {
			t.Errorf("%v rejected: %v", good, err)
		}
	}
	cases := []struct {
		name string
		tp   Tuple
		want string
	}{
		{"code 70", Tuple{Values: []float64{1, 70}, Class: 0}, `"c"`},
		{"code 4", Tuple{Values: []float64{1, 4}, Class: 0}, `"c"`},
		{"negative code", Tuple{Values: []float64{1, -1}, Class: 0}, `"c"`},
		{"fractional code", Tuple{Values: []float64{1, 1.5}, Class: 0}, `"c"`},
		{"NaN code", Tuple{Values: []float64{1, math.NaN()}, Class: 0}, `"c"`},
		{"huge code", Tuple{Values: []float64{1, 1e300}, Class: 0}, `"c"`},
		{"class 2", Tuple{Values: []float64{1, 2}, Class: 2}, "class"},
		{"negative class", Tuple{Values: []float64{1, 2}, Class: -1}, "class"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := NewChunk(2, 4)
			ch.AppendTuple(Tuple{Values: []float64{0, 1}, Class: 1})
			ch.AppendTuple(tc.tp)
			for op, err := range map[string]error{
				"tuple": s.CheckDomain(tc.tp),
				"chunk": s.CheckChunkDomain(ch),
			} {
				if !errors.Is(err, ErrSchemaMismatch) || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%s: got %v, want a schema mismatch naming %s", op, err, tc.want)
				}
			}
		})
	}
}

func TestKindString(t *testing.T) {
	if Numeric.String() != "numeric" || Categorical.String() != "categorical" {
		t.Error("kind names wrong")
	}
	if Kind(7).String() == "" {
		t.Error("unknown kind should still render")
	}
}
