package core

import (
	"fmt"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/tree"
)

// leafFamily is a leaf's stored family F_n, held in one of two layouts:
// a tuple bag while the family's size is unknown or too big for memory
// (leaves during the cleanup scan, leaves never fit, spilled families),
// and a presorted inmem.Family from the leaf's first in-memory fit on (or
// from a gather, which knows the family's size), so that a refit merges
// an update's rows into presorted lists instead of copying the family out
// of a bag and sorting it again. A family's live rows count against the
// memory budget of env, as a resident bag's rows do.
type leafFamily struct {
	bag *data.TupleBag
	fam *inmem.Family
	// grown reports that fam has been fit: its next fit is a refit. A
	// gathered family's first fit is not.
	grown bool
	env   data.SpillEnv
}

// newLeafFamily returns the leaf family held as bag over env.
func newLeafFamily(bag *data.TupleBag, env data.SpillEnv) *leafFamily {
	return &leafFamily{bag: bag, env: env}
}

// newPresizedFamily returns an empty leaf family held as an inmem.Family
// with room for n rows.
func newPresizedFamily(schema *data.Schema, env data.SpillEnv, n int64) *leafFamily {
	return &leafFamily{fam: inmem.NewFamily(schema, int(n)), env: env}
}

// apply applies the chunk rows named by idx (all rows when idx is nil)
// with weight w: +1 adds them, -1 removes them. A family adds them only if
// the budget covers every one; otherwise its rows move back into a bag
// first, which then takes the insert.
func (f *leafFamily) apply(ch *data.Chunk, idx []int32, w int64) error {
	if fam := f.fam; fam != nil {
		if w < 0 {
			before := fam.Len()
			err := fam.Remove(ch, idx)
			f.env.Budget.Release(int64(before - fam.Len()))
			return err
		}
		k := int64(ch.Len())
		if idx != nil {
			k = int64(len(idx))
		}
		if f.env.Budget.TryAcquire(k) {
			fam.Add(ch, idx)
			return nil
		}
		f.env.Budget.Release(int64(fam.Len()))
		if err := f.toBag(fam); err != nil {
			return err
		}
	}
	if w > 0 {
		return f.bag.AddChunkRows(ch, idx)
	}
	return f.bag.RemoveChunkRows(ch, idx)
}

// toBag holds the live rows of fam, whose budget the caller has released,
// in a new bag over env, in row order. On error the bag holds the rows
// copied so far.
func (f *leafFamily) toBag(fam *inmem.Family) error {
	f.fam = nil
	f.bag = data.NewTupleBagEnv(fam.Schema(), f.env)
	return fam.ForEachChunk(f.bag.AddChunkRows)
}

// each streams the family chunk by chunk, net of removals, in row order.
func (f *leafFamily) each(fn func(*data.Chunk, []int32) error) error {
	if f.fam != nil {
		return f.fam.ForEachChunk(fn)
	}
	return f.bag.ForEachChunk(fn)
}

// len returns the number of live rows.
func (f *leafFamily) len() int64 {
	if f.fam != nil {
		return int64(f.fam.Len())
	}
	return f.bag.Len()
}

// spilled reports whether the family is a bag part of which overflowed
// the memory budget to disk.
func (f *leafFamily) spilled() bool { return f.bag != nil && f.bag.Spilled() }

// source returns a Source view of a bag's rows. Only a spilled family,
// which is always a bag, is read this way (by a recursive invocation).
func (f *leafFamily) source() data.Source { return f.bag.Source() }

// fit grows the in-memory tree of the family under cfg, counting in tally
// a refit of a family kept since an earlier fit, and as a conversion the
// first fit of a leaf's rows in a family: a resident bag moved into one,
// or a gathered family. A family refits from its permutations. A resident
// bag is copied into a family presized to it and closed before the build,
// so the bag and the builder's working arrays are never live together;
// the family then takes the bag's budget and keeps the rows, unless
// another leaf took that budget in the meantime, in which case the rows
// go back into a bag. A spilled bag fits from a presized copy dropped
// after the build, and stays a bag. The build shares its work through wk
// (see inmem.Family.Build).
func (f *leafFamily) fit(cfg inmem.Config, tally *leafTally, wk *inmem.Worker) (*tree.Tree, error) {
	if f.fam != nil {
		if f.grown {
			tally.refits.Add(1)
		} else {
			tally.conversions.Add(1)
			f.grown = true
		}
		return f.fam.Build(cfg, wk), nil
	}
	fam := inmem.NewFamily(f.bag.Schema(), int(max(f.bag.Len(), 0)))
	err := f.bag.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
		fam.Add(ch, idx)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("core: reading leaf family: %w", err)
	}
	if f.bag.Spilled() {
		return fam.Build(cfg, wk), nil
	}
	f.bag.Close()
	f.bag = nil
	kept := f.env.Budget.TryAcquire(int64(fam.Len()))
	sub := fam.Build(cfg, wk)
	if !kept {
		return sub, f.toBag(fam)
	}
	f.fam, f.grown = fam, true
	tally.conversions.Add(1)
	return sub, nil
}

// compact applies the compaction rule once an update pass is over: a bag
// whose pending removals, or a family whose dead rows, outnumber half its
// live rows is rewritten without them.
func (f *leafFamily) compact() error {
	if fam := f.fam; fam != nil {
		if fam.Dead() > 0 && 2*fam.Dead() > fam.Len() {
			fam.Compact()
		}
		return nil
	}
	if b := f.bag; b.PendingRemovals() > 0 && 2*b.PendingRemovals() > b.Len() {
		return b.Compact()
	}
	return nil
}

// reset empties the family for a rerun of the cleanup scan: a family's
// rows return to the budget and the leaf starts over with an empty bag.
func (f *leafFamily) reset() error {
	if fam := f.fam; fam != nil {
		f.env.Budget.Release(int64(fam.Len()))
		f.fam = nil
		f.bag = data.NewTupleBagEnv(fam.Schema(), f.env)
		return nil
	}
	return f.bag.Reset()
}

// close releases the family's budget and buffers.
func (f *leafFamily) close() {
	if f.fam != nil {
		f.env.Budget.Release(int64(f.fam.Len()))
	}
	if f.bag != nil {
		f.bag.Close()
	}
	f.fam, f.bag = nil, nil
}

// err returns the poison cause of a bag's spill buffer (see
// data.TupleBag.Err); a family is never poisoned.
func (f *leafFamily) err() error {
	if f.bag != nil {
		return f.bag.Err()
	}
	return nil
}

// check verifies the layout for tests: exactly one of the bag and the
// family is held, a family's permutations are sorted and cover exactly
// its rows, and the family streams want live rows.
func (f *leafFamily) check(want int64) error {
	if (f.bag == nil) == (f.fam == nil) {
		return fmt.Errorf("core: leaf holds a bag (%v) and a presorted family (%v)", f.bag != nil, f.fam != nil)
	}
	if f.fam != nil {
		if err := f.fam.Check(); err != nil {
			return err
		}
	}
	var got int64
	err := f.each(func(ch *data.Chunk, idx []int32) error {
		if idx == nil {
			got += int64(ch.Len())
		} else {
			got += int64(len(idx))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("core: leaf family size %d != class-count total %d", got, want)
	}
	return nil
}
