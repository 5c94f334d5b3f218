package data

import (
	"testing"
)

type recordingSpill struct{ tuples, bytes int64 }

func (r *recordingSpill) RecordSpill(t, b int64) { r.tuples += t; r.bytes += b }

func TestSpillBufferInMemory(t *testing.T) {
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer sb.Close()
	for _, tp := range makeTuples(100) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if sb.Len() != 100 || sb.SpilledTuples() != 0 {
		t.Fatalf("len=%d spilled=%d", sb.Len(), sb.SpilledTuples())
	}
	got, err := ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	for i, tp := range got {
		if int(tp.Values[0]) != i {
			t.Fatalf("tuple %d = %v", i, tp)
		}
	}
}

func TestSpillBufferOverflow(t *testing.T) {
	rec := &recordingSpill{}
	budget := NewMemBudget(30)
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), budget, rec)
	defer sb.Close()
	for _, tp := range makeTuples(100) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if sb.Len() != 100 {
		t.Fatalf("len = %d", sb.Len())
	}
	if sb.SpilledTuples() != 70 {
		t.Fatalf("spilled = %d, want 70", sb.SpilledTuples())
	}
	// Spill accounting covers only bytes that durably reached the file;
	// with 70 small tuples everything still sits in the write buffer.
	if rec.tuples != 0 || rec.bytes != 0 {
		t.Errorf("recorder saw %d tuples / %d bytes before any flush", rec.tuples, rec.bytes)
	}
	// Content and order preserved across the memory/disk boundary.
	got, err := ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("read %d tuples", len(got))
	}
	for i, tp := range got {
		if int(tp.Values[0]) != i || tp.Class != i%2 {
			t.Fatalf("tuple %d = %v", i, tp)
		}
	}
}

func TestSpillBufferOverflowAccounting(t *testing.T) {
	rec := &recordingSpill{}
	budget := NewMemBudget(1)
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), budget, rec)
	defer sb.Close()
	// Enough tuples to force flushes past the write-buffer threshold.
	tupleSize := FormatWide.TupleSize(twoAttrSchema(t))
	n := spillFlushBytes/tupleSize + 10
	for range 3 {
		for _, tp := range makeTuples(n) {
			if err := sb.Append(tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	if rec.tuples <= 0 || rec.bytes <= 0 {
		t.Fatalf("recorder saw %d tuples / %d bytes after flushes", rec.tuples, rec.bytes)
	}
	if rec.bytes != rec.tuples*int64(tupleSize) {
		t.Errorf("accounted bytes %d inconsistent with %d whole tuples of %d bytes",
			rec.bytes, rec.tuples, tupleSize)
	}
	if rec.tuples > sb.SpilledTuples() {
		t.Errorf("recorder saw %d tuples, more than the %d spilled", rec.tuples, sb.SpilledTuples())
	}
}

func TestMemBudgetZeroCapacity(t *testing.T) {
	b := NewMemBudget(-1)
	if b.TryAcquire(1) {
		t.Error("negative-limit budget must refuse every acquisition")
	}
	b.Release(1) // must not underflow or panic
	if b.Used() != 0 {
		t.Errorf("used = %d", b.Used())
	}
	// A buffer over a zero-capacity budget spills every tuple.
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), b, nil)
	defer sb.Close()
	for _, tp := range makeTuples(5) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if sb.SpilledTuples() != 5 {
		t.Errorf("spilled %d of 5", sb.SpilledTuples())
	}
}

func TestSpillBufferSharedBudget(t *testing.T) {
	budget := NewMemBudget(10)
	s := twoAttrSchema(t)
	a := NewSpillBuffer(s, t.TempDir(), budget, nil)
	b := NewSpillBuffer(s, t.TempDir(), budget, nil)
	defer a.Close()
	defer b.Close()
	for _, tp := range makeTuples(8) {
		if err := a.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	for _, tp := range makeTuples(8) {
		if err := b.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if a.SpilledTuples()+b.SpilledTuples() != 6 {
		t.Errorf("spilled %d+%d, want 6 total over the shared budget",
			a.SpilledTuples(), b.SpilledTuples())
	}
	if budget.Used() != 10 {
		t.Errorf("budget used %d, want 10", budget.Used())
	}
	a.Close()
	if budget.Used() != b.Len()-b.SpilledTuples() {
		t.Errorf("budget not released on close: used %d", budget.Used())
	}
}

func TestSpillBufferAppendAfterScan(t *testing.T) {
	budget := NewMemBudget(5)
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), budget, nil)
	defer sb.Close()
	for _, tp := range makeTuples(20) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := CountTuples(sb); n != 20 {
		t.Fatalf("first scan saw %d", n)
	}
	for _, tp := range makeTuples(10) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("after re-append: %d tuples", len(got))
	}
}

func TestSpillBufferReset(t *testing.T) {
	budget := NewMemBudget(5)
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), budget, nil)
	defer sb.Close()
	for _, tp := range makeTuples(20) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	if err := sb.Reset(); err != nil {
		t.Fatal(err)
	}
	if sb.Len() != 0 {
		t.Fatalf("len after reset = %d", sb.Len())
	}
	if budget.Used() != 0 {
		t.Errorf("budget not released by reset: %d", budget.Used())
	}
	for _, tp := range makeTuples(7) {
		if err := sb.Append(tp); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadAll(sb)
	if err != nil || len(got) != 7 {
		t.Fatalf("after reuse: %d tuples, err %v", len(got), err)
	}
}

func TestSpillBufferClosedOps(t *testing.T) {
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), nil, nil)
	if err := sb.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sb.Append(Tuple{Values: []float64{1, 2}, Class: 0}); err == nil {
		t.Error("append to closed buffer should error")
	}
	if _, err := sb.Scan(); err == nil {
		t.Error("scan of closed buffer should error")
	}
	if err := sb.Close(); err != nil {
		t.Error("double close should be a no-op")
	}
}

func TestSpillBufferSchemaMismatch(t *testing.T) {
	sb := NewSpillBuffer(twoAttrSchema(t), t.TempDir(), nil, nil)
	defer sb.Close()
	if err := sb.Append(Tuple{Values: []float64{1}, Class: 0}); err == nil {
		t.Error("expected schema mismatch")
	}
}

func TestMemBudgetNilSafe(t *testing.T) {
	var b *MemBudget
	if !b.TryAcquire(100) {
		t.Error("nil budget should be unlimited")
	}
	b.Release(100)
	if b.Used() != 0 {
		t.Error("nil budget Used should be 0")
	}
}
