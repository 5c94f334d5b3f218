package data

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

func bagContents(t *testing.T, b *TupleBag) []float64 {
	t.Helper()
	var out []float64
	if err := b.ForEachChunk(func(ch *Chunk, idx []int32) error {
		for _, tp := range ch.GatherRows(idx) {
			out = append(out, tp.Values[0])
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(out)
	return out
}

func TestTupleBagAddRemove(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	ts := makeTuples(10)
	for _, tp := range ts {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(ts[3]); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(ts[7]); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 8 {
		t.Fatalf("Len = %d, want 8", b.Len())
	}
	got := bagContents(t, b)
	want := []float64{0, 1, 2, 4, 5, 6, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("contents %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("contents %v, want %v", got, want)
		}
	}
}

func TestTupleBagMultiset(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	tp := Tuple{Values: []float64{1, 2}, Class: 0}
	for i := 0; i < 3; i++ {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(tp); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (multiset semantics)", b.Len())
	}
	var n int
	if err := b.ForEachChunk(func(ch *Chunk, idx []int32) error { n += ch.selected(idx); return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("iterated %d, want 2", n)
	}
}

func TestTupleBagRemoveThenAddCancels(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	tp := Tuple{Values: []float64{5, 1}, Class: 1}
	if err := b.Add(tp); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(tp); err != nil {
		t.Fatal(err)
	}
	// Pending removal cancels against a new identical Add.
	if err := b.Add(tp); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	if b.PendingRemovals() != 0 {
		t.Errorf("pending removals = %d, want 0 after cancellation", b.PendingRemovals())
	}
}

func TestTupleBagDanglingRemovalDetected(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	if err := b.Add(Tuple{Values: []float64{1, 1}, Class: 0}); err != nil {
		t.Fatal(err)
	}
	if err := b.Remove(Tuple{Values: []float64{2, 2}, Class: 0}); err != nil {
		t.Fatal(err)
	}
	err := b.ForEachChunk(func(*Chunk, []int32) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "removal") {
		t.Fatalf("dangling removal not detected: %v", err)
	}
}

func TestTupleBagCompact(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), NewMemBudget(4), nil)
	defer b.Close()
	ts := makeTuples(20)
	for _, tp := range ts {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if err := b.Remove(ts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if b.PendingRemovals() != 0 {
		t.Errorf("pending removals after compact = %d", b.PendingRemovals())
	}
	got := bagContents(t, b)
	if len(got) != 10 || got[0] != 10 || got[9] != 19 {
		t.Fatalf("contents after compact: %v", got)
	}
}

func TestTupleBagSourceView(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	ts := makeTuples(6)
	for _, tp := range ts {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Remove(ts[0]); err != nil {
		t.Fatal(err)
	}
	src := b.Source()
	if n, ok := src.Count(); !ok || n != 5 {
		t.Fatalf("source count %d,%v", n, ok)
	}
	got, err := ReadAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("source view returned %d tuples", len(got))
	}

	// A view with pending removals streams the buffer, filtering chunk by
	// chunk: a pass over a spilled bag allocates a fixed amount — the
	// spill file's read buffer and a few chunks — whatever the bag holds.
	t.Run("spilled-removals-bounded-memory", func(t *testing.T) {
		const n, removals = 100000, 10
		b := NewTupleBagEnv(twoAttrSchema(t), SpillEnv{Dir: t.TempDir(), Budget: NewMemBudget(1000)})
		defer b.Close()
		ts := makeTuples(n)
		for _, tp := range ts {
			if err := b.Add(tp); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < removals; i++ {
			if err := b.Remove(ts[i*(n/removals)+3]); err != nil {
				t.Fatal(err)
			}
		}
		const bound = 1 << 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		var seen int
		err := ForEachChunk(b.Source(), DefaultChunkRows, func(ch *Chunk) error {
			seen += ch.Len()
			return nil
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if seen != n-removals {
			t.Fatalf("view delivered %d tuples, want %d", seen, n-removals)
		}
		alloc := after.TotalAlloc - before.TotalAlloc
		t.Logf("one pass over a %d-tuple view allocated %d bytes", n, alloc)
		if alloc > bound {
			t.Errorf("one pass over a %d-tuple view allocated %d bytes, want at most %d", n, alloc, bound)
		}
	})
}

func TestTupleBagMaterializeAndReset(t *testing.T) {
	b := NewTupleBag(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer b.Close()
	for _, tp := range makeTuples(5) {
		if err := b.Add(tp); err != nil {
			t.Fatal(err)
		}
	}
	ts, err := ReadAll(b.Source())
	if err != nil || len(ts) != 5 {
		t.Fatalf("read: %d tuples, err %v", len(ts), err)
	}
	ts[0].Values[0] = -1 // must not affect the bag
	if got := bagContents(t, b); got[0] != 0 {
		t.Errorf("writing a read copy changed the bag: %v", got)
	}
	if err := b.Reset(); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("Len after reset = %d", b.Len())
	}
}

// TestTupleBagSignedZero: Equal does not tell -0 from +0, so a bag must
// remove a stored -0 when asked to remove +0 (and the other way round)
// through both remove paths, and a -0 addition must cancel a pending +0
// removal through both add paths.
func TestTupleBagSignedZero(t *testing.T) {
	schema := twoAttrSchema(t)
	negZero := math.Copysign(0, -1)
	row := func(x float64) Tuple { return Tuple{Values: []float64{x, 1}, Class: 1} }
	chunkOf := func(tp Tuple) *Chunk {
		ch := NewChunk(2, 1)
		ch.AppendTuple(tp)
		return ch
	}
	requireEmpty := func(label string, b *TupleBag) {
		t.Helper()
		if err := b.ForEachChunk(func(*Chunk, []int32) error { return nil }); err != nil {
			t.Fatalf("%s: ForEachChunk: %v", label, err)
		}
		if err := b.Compact(); err != nil {
			t.Fatalf("%s: Compact: %v", label, err)
		}
		if b.Len() != 0 || b.PendingRemovals() != 0 {
			t.Errorf("%s: Len %d, %d pending removals, want both 0", label, b.Len(), b.PendingRemovals())
		}
	}
	for _, signs := range [][2]float64{{negZero, 0}, {0, negZero}} {
		stored, removed := row(signs[0]), row(signs[1])
		for _, chunked := range []bool{false, true} {
			label := fmt.Sprintf("store %v, remove %v, chunked %v", stored, removed, chunked)
			b := NewTupleBag(schema, t.TempDir(), nil, nil)
			if err := b.Add(stored); err != nil {
				t.Fatal(err)
			}
			var err error
			if chunked {
				err = b.RemoveChunkRows(chunkOf(removed), nil)
			} else {
				err = b.Remove(removed)
			}
			if err != nil {
				t.Fatal(err)
			}
			requireEmpty("remove: "+label, b)
			b.Close()

			b = NewTupleBag(schema, t.TempDir(), nil, nil)
			if err := b.Remove(removed); err != nil {
				t.Fatal(err)
			}
			if chunked {
				err = b.AddChunkRows(chunkOf(stored), nil)
			} else {
				err = b.Add(stored)
			}
			if err != nil {
				t.Fatal(err)
			}
			requireEmpty("cancel: "+label, b)
			b.Close()
		}
	}
}
