package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"slices"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/discretize"
	"github.com/boatml/boat/internal/split"
	"github.com/boatml/boat/internal/tree"
)

// Model persistence: Save serializes the complete maintained state of a
// BOAT tree — coarse criteria, cleanup statistics, histograms, moments,
// stuck sets S_n and stored leaf families — so a long-lived deployment
// (the paper's data-warehouse setting, where S_n files persist between
// update batches) can checkpoint the model and resume incremental
// maintenance after a restart. Load reverses it; the loaded tree is
// behaviorally identical: Tree(), Insert and Delete produce exactly the
// same results as on the original.

const (
	persistMagic   = "BOATMODL"
	persistVersion = 1

	nodeTagLeaf     = byte(1)
	nodeTagInternal = byte(2)
)

// ErrCorruptModel reports a model stream Load cannot accept: a wrong
// magic or version, a truncated stream, or a decoded state that breaks
// the tree's invariants — count vectors of the wrong arity or sign,
// attribute indexes or kinds outside the schema, stored tuples outside
// the schema's domain, class counts that disagree with the stored
// tuples. Every such failure wraps it, and leaves no buffer open; a read
// error of the stream itself is returned as is.
var ErrCorruptModel = errors.New("core: corrupt model")

// ErrConfigMismatch reports a model saved under different growth options
// than the configuration Load was given.
var ErrConfigMismatch = errors.New("core: configuration fingerprint mismatch")

// Save writes the model to w. The configuration itself is not stored
// (methods are code, not data); Load verifies a fingerprint of the
// growth-relevant options and refuses mismatched configurations. A
// broken model (ErrBrokenModel) is refused. Save serializes with updates:
// it writes the model between two of them.
func (t *Tree) Save(w io.Writer) error {
	t.updateMu.Lock()
	defer t.updateMu.Unlock()
	if t.root == nil {
		return errors.New("core: saving a closed tree")
	}
	if t.broken != nil {
		return t.broken
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := io.WriteString(bw, persistMagic); err != nil {
		return err
	}
	enc := &encoder{w: bw, schema: t.schema}
	enc.u8(persistVersion)
	enc.str(t.fingerprint())
	enc.node(t.root)
	if enc.err != nil {
		return enc.err
	}
	return bw.Flush()
}

// Load reads a model saved by Save. cfg must carry the same Method and
// growth options the model was built with (verified via a fingerprint);
// resource options (TempDir, MemBudgetTuples, Stats, Seed) may differ.
// src-independent: the training data itself is not needed.
func Load(r io.Reader, schema *data.Schema, cfg Config) (*Tree, error) {
	t, err := newTree(schema, cfg, 1) // n only influences sample-size defaults
	if err != nil {
		return nil, err
	}

	dec := &decoder{r: bufio.NewReaderSize(r, 1<<16), schema: schema, t: t}
	magic := make([]byte, len(persistMagic))
	if dec.read(magic); dec.err == nil && string(magic) != persistMagic {
		dec.failf("not a BOAT model stream")
	}
	if v := dec.u8(); dec.err == nil && v != persistVersion {
		dec.failf("unsupported model version %d", v)
	}
	fp := dec.str()
	if dec.err == nil && fp != t.fingerprint() {
		return nil, fmt.Errorf("%w: model %q, config %q", ErrConfigMismatch, fp, t.fingerprint())
	}
	root := dec.node(0)
	if dec.err != nil {
		// A partially decoded tree already owns buffers (and possibly temp
		// files); close every bag the decoder created so a failed Load
		// leaks nothing. Close is idempotent, so bags that were already
		// replaced or closed along the way are safe to re-close.
		for _, b := range dec.open {
			b.Close()
		}
		return nil, dec.err
	}
	t.root = root
	return t, nil
}

// SaveFile atomically writes the model to path: the bytes go to a
// temporary file in the destination directory, which is synced, closed
// and renamed over path, so a crash or storage fault mid-save can never
// leave a truncated model at path. Transient Create/Remove/Rename faults
// are retried under the tree's SpillRetry policy, and the temp file is
// registered in (and on success or cleanup removed from) the process-wide
// temp registry (data.LiveTempFiles). Like Save, it serializes with
// updates.
func (t *Tree) SaveFile(path string) error {
	fs := t.cfg.FS
	if fs == nil {
		fs = data.OsFS{}
	}
	retry := t.cfg.SpillRetry
	var f data.File
	err := retry.Do(t.cfg.Stats, func() error {
		var cerr error
		f, cerr = fs.CreateTemp(filepath.Dir(path), "boat-model-*.tmp")
		return cerr
	})
	if err != nil {
		return fmt.Errorf("core: creating model temp file: %w", err)
	}
	name := f.Name()
	data.RegisterTemp(name)
	saveErr := t.Save(f)
	if saveErr == nil {
		saveErr = f.Sync()
	}
	if cerr := f.Close(); saveErr == nil {
		saveErr = cerr
	}
	if saveErr == nil {
		if saveErr = retry.Do(t.cfg.Stats, func() error { return fs.Rename(name, path) }); saveErr == nil {
			data.UnregisterTemp(name)
			return nil
		}
	}
	if rmErr := retry.Do(t.cfg.Stats, func() error { return fs.Remove(name) }); rmErr == nil {
		data.UnregisterTemp(name)
	}
	return fmt.Errorf("core: saving model to %s: %w", path, saveErr)
}

// fingerprint captures the options that determine the tree's semantics.
func (t *Tree) fingerprint() string {
	return fmt.Sprintf("method=%s minSplit=%d maxDepth=%d stop=%d/%v classes=%d attrs=%d",
		t.cfg.Method.Name(), t.cfg.MinSplit, t.cfg.MaxDepth,
		t.cfg.StopThreshold, t.cfg.StopAtThreshold,
		t.schema.ClassCount, len(t.schema.Attributes))
}

// ---------------------------------------------------------------------------
// Encoder

type encoder struct {
	w      *bufio.Writer
	schema *data.Schema
	buf    []byte
	err    error
}

func (e *encoder) u8(v byte) {
	if e.err == nil {
		e.err = e.w.WriteByte(v)
	}
}

func (e *encoder) u64(v uint64) {
	if e.err != nil {
		return
	}
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	_, e.err = e.w.Write(b[:])
}

func (e *encoder) i64(v int64)   { e.u64(uint64(v)) }
func (e *encoder) f64(v float64) { e.u64(math.Float64bits(v)) }

func (e *encoder) bytes(b []byte) {
	e.u64(uint64(len(b)))
	if e.err == nil {
		_, e.err = e.w.Write(b)
	}
}

func (e *encoder) str(s string) { e.bytes([]byte(s)) }

func (e *encoder) i64s(v []int64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.i64(x)
	}
}

func (e *encoder) u64s(v []uint64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.u64(x)
	}
}

func (e *encoder) f64s(v []float64) {
	e.u64(uint64(len(v)))
	for _, x := range v {
		e.f64(x)
	}
}

func (e *encoder) bag(b *data.TupleBag) {
	if b == nil {
		e.u64(0)
		return
	}
	e.rows(b.Len(), b.ForEachChunk)
}

// rows encodes a stored tuple multiset of n tuples — a stuck set's or a
// leaf family's — as its count followed by the tuples that each streams,
// in stream order.
func (e *encoder) rows(n int64, each func(func(*data.Chunk, []int32) error) error) {
	if e.err != nil {
		return
	}
	e.u64(uint64(n))
	tupleSize := data.FormatWide.TupleSize(e.schema)
	tp := data.Tuple{Values: make([]float64, len(e.schema.Attributes))}
	err := each(func(ch *data.Chunk, idx []int32) error {
		k := ch.Len()
		if idx != nil {
			k = len(idx)
		}
		for j := 0; j < k; j++ {
			r := j
			if idx != nil {
				r = int(idx[j])
			}
			ch.Gather(r, tp.Values)
			tp.Class = ch.Class(r)
			e.buf = data.AppendTuple(e.buf[:0], data.FormatWide, tp)
			if len(e.buf) != tupleSize {
				return errors.New("core: unexpected tuple encoding size")
			}
			if _, err := e.w.Write(e.buf); err != nil {
				return err
			}
		}
		return nil
	})
	if e.err == nil {
		e.err = err
	}
}

func (e *encoder) node(n *bnode) {
	if e.err != nil {
		return
	}
	if n.isLeaf() {
		e.u8(nodeTagLeaf)
		e.i64s(n.classCounts)
		e.i64(n.promoteAttempt)
		e.rows(n.family.len(), n.family.each)
		if n.subtree != nil {
			raw, err := tree.EncodeSubtree(n.subtree, e.schema)
			if err != nil {
				e.err = err
				return
			}
			e.u8(1)
			e.bytes(raw)
		} else {
			e.u8(0)
		}
		return
	}
	e.u8(nodeTagInternal)
	e.i64s(n.classCounts)
	// Coarse criterion.
	e.i64(int64(n.coarse.attr))
	e.u8(byte(n.coarse.kind))
	e.u64(n.coarse.subset)
	e.f64(n.coarse.lo)
	e.f64(n.coarse.hi)
	// Final criterion (routing fields only; Found is implied).
	e.i64(int64(n.crit.Attr))
	e.u8(byte(n.crit.Kind))
	e.f64(n.crit.Threshold)
	e.u64(n.crit.Subset)
	e.f64(n.crit.Quality)
	e.f64(n.routedThr)
	e.i64(n.eqLow)
	e.i64s(n.lowCounts)
	e.i64s(n.highCounts)
	// Categorical counts.
	for _, cc := range n.catCounts {
		if cc == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		e.u64(uint64(len(cc.Counts)))
		for _, row := range cc.Counts {
			e.i64s(row)
		}
	}
	// Histograms.
	for _, h := range n.hist {
		if h == nil {
			e.u8(0)
			continue
		}
		e.u8(1)
		e.f64s(h.Boundaries)
		e.u64(uint64(len(h.Counts)))
		for _, row := range h.Counts {
			e.i64s(row)
		}
	}
	// Moments.
	if n.moments == nil {
		e.u8(0)
	} else {
		e.u8(1)
		e.i64s(n.moments.ClassTotals)
		for i := range e.schema.Attributes {
			if nm := n.moments.Num[i]; nm != nil {
				e.u8(1)
				e.i64s(nm.Count)
				e.i64s(nm.Sum)
				e.u64s(nm.SqHi)
				e.u64s(nm.SqLo)
			} else {
				e.u8(0)
				cc := n.moments.Cat[i]
				e.u64(uint64(len(cc.Counts)))
				for _, row := range cc.Counts {
					e.i64s(row)
				}
			}
		}
	}
	e.bag(n.pending)
	e.bag(n.pushed)
	e.node(n.left)
	e.node(n.right)
}

// ---------------------------------------------------------------------------
// Decoder

type decoder struct {
	r      *bufio.Reader
	schema *data.Schema
	t      *Tree
	buf    []byte
	err    error
	// open tracks every bag the decoder allocates, so Load can release
	// them all if decoding fails partway.
	open []*data.TupleBag
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %w", ErrCorruptModel, err)
	}
}

func (d *decoder) failf(format string, args ...any) {
	d.fail(fmt.Errorf(format, args...))
}

// failIO records an I/O error: a stream that ends early is a truncated
// model, and any other error — the reader's own, or a spill write's —
// passes up as is.
func (d *decoder) failIO(err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		d.fail(io.ErrUnexpectedEOF)
	} else if d.err == nil {
		d.err = err
	}
}

// read fills b from the stream.
func (d *decoder) read(b []byte) {
	if d.err != nil {
		return
	}
	if _, err := io.ReadFull(d.r, b); err != nil {
		d.failIO(err)
	}
}

func (d *decoder) u8() byte {
	if d.err != nil {
		return 0
	}
	b, err := d.r.ReadByte()
	if err != nil {
		d.failIO(err)
	}
	return b
}

func (d *decoder) u64() uint64 {
	var b [8]byte
	d.read(b[:])
	return binary.LittleEndian.Uint64(b[:])
}

func (d *decoder) i64() int64   { return int64(d.u64()) }
func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) count(max uint64, what string) int {
	n := d.u64()
	if d.err == nil && n > max {
		d.failf("implausible %s count %d", what, n)
		return 0
	}
	return int(n)
}

// readLimit caps the up-front allocation of a length-prefixed block:
// longer blocks grow as their bytes arrive, so a corrupt length in a
// short stream fails at the stream's end instead of allocating it.
const readLimit = 1 << 16

func (d *decoder) str() string {
	return string(d.bytesBlock(1 << 16))
}

func (d *decoder) bytesBlock(max uint64) []byte {
	n := d.count(max, "bytes")
	if d.err != nil {
		return nil
	}
	b := make([]byte, 0, min(n, readLimit))
	for len(b) < n {
		k := min(n-len(b), readLimit)
		b = slices.Grow(b, k)[:len(b)+k]
		if d.read(b[len(b)-k:]); d.err != nil {
			return nil
		}
	}
	return b
}

// words reads a length-prefixed vector of 8-byte words.
func words[T int64 | uint64 | float64](d *decoder, what string, conv func(uint64) T) []T {
	n := d.count(1<<24, what)
	out := make([]T, 0, min(n, readLimit))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, conv(d.u64()))
	}
	return out
}

func (d *decoder) i64s() []int64 {
	return words(d, "int64 slice", func(v uint64) int64 { return int64(v) })
}

func (d *decoder) u64slice() []uint64 {
	return words(d, "uint64 slice", func(v uint64) uint64 { return v })
}

func (d *decoder) f64s() []float64 {
	return words(d, "float64 slice", math.Float64frombits)
}

// counts reads a per-class count vector, which must have one
// non-negative entry per class.
func (d *decoder) counts(what string) []int64 {
	v := d.i64s()
	if d.err != nil {
		return nil
	}
	if len(v) != d.schema.ClassCount {
		d.failf("%s arity %d, schema has %d classes", what, len(v), d.schema.ClassCount)
		return nil
	}
	for _, c := range v {
		if c < 0 {
			d.failf("negative %s %d", what, c)
			return nil
		}
	}
	return v
}

// bag decodes a stored tuple bag, checking every tuple against the
// schema's domain; the classes of its tuples are added to tally when it
// is non-nil.
func (d *decoder) bag(tally []int64) *data.TupleBag {
	n := d.u64()
	bag := data.NewTupleBagEnv(d.schema, d.t.spillEnv(d.t.budget))
	d.open = append(d.open, bag)
	if d.err != nil {
		return bag
	}
	tupleSize := data.FormatWide.TupleSize(d.schema)
	if cap(d.buf) < tupleSize {
		d.buf = make([]byte, tupleSize)
	}
	tp := data.Tuple{Values: make([]float64, len(d.schema.Attributes))}
	for i := uint64(0); i < n; i++ {
		if d.read(d.buf[:tupleSize]); d.err != nil {
			return bag
		}
		data.DecodeTupleInto(d.buf[:tupleSize], data.FormatWide, &tp)
		if err := d.schema.CheckDomain(tp); err != nil {
			d.fail(err)
			return bag
		}
		if err := bag.Add(tp); err != nil {
			d.failIO(err)
			return bag
		}
		if tally != nil {
			tally[tp.Class]++
		}
	}
	return bag
}

func (d *decoder) node(depth int) *bnode {
	if d.err != nil {
		return nil
	}
	switch tag := d.u8(); tag {
	case nodeTagLeaf:
		n := &bnode{depth: depth, leaf: true}
		n.classCounts = d.counts("leaf class count")
		n.promoteAttempt = d.i64()
		tally := make([]int64, d.schema.ClassCount)
		n.family = newLeafFamily(d.bag(tally), d.t.spillEnv(d.t.budget))
		if d.u8() == 1 {
			raw := d.bytesBlock(1 << 32)
			if d.err == nil {
				sub, err := tree.DecodeSubtree(raw, d.schema)
				if err != nil {
					d.fail(err)
				}
				n.subtree = sub
			}
		}
		if d.err != nil {
			return nil
		}
		if !slices.Equal(tally, n.classCounts) {
			d.failf("leaf class counts %v, stored family holds %v", n.classCounts, tally)
			return nil
		}
		return n
	case nodeTagInternal:
		classCounts := d.counts("class count")
		c := &coarseCrit{}
		c.attr = int(d.i64())
		if d.err == nil && (c.attr < 0 || c.attr >= len(d.schema.Attributes)) {
			d.failf("coarse attribute %d out of range", c.attr)
		}
		if d.err != nil {
			return nil
		}
		c.kind = data.Kind(d.u8())
		if d.err == nil && c.kind != d.schema.Attributes[c.attr].Kind {
			d.failf("coarse attribute %d has kind %d, the schema says %d",
				c.attr, c.kind, d.schema.Attributes[c.attr].Kind)
		}
		c.subset = d.u64()
		c.lo = d.f64()
		c.hi = d.f64()
		if d.err != nil {
			return nil
		}
		n := d.t.newInternal(depth, c)
		if n.pending != nil {
			d.open = append(d.open, n.pending, n.pushed)
		}
		n.classCounts = classCounts
		n.crit = split.Split{Found: true}
		n.crit.Attr = int(d.i64())
		n.crit.Kind = data.Kind(d.u8())
		if d.err == nil && (n.crit.Attr != c.attr || n.crit.Kind != c.kind) {
			d.failf("final criterion on attribute %d kind %d, coarse criterion on %d kind %d",
				n.crit.Attr, n.crit.Kind, c.attr, c.kind)
			return nil
		}
		n.crit.Threshold = d.f64()
		n.crit.Subset = d.u64()
		n.crit.Quality = d.f64()
		n.routedThr = d.f64()
		n.eqLow = d.i64()
		if c.kind == data.Numeric {
			n.lowCounts = d.counts("low-interval count")
			n.highCounts = d.counts("high-interval count")
		} else if low, high := d.i64s(), d.i64s(); d.err == nil && len(low)+len(high) != 0 {
			d.failf("interval counts on a categorical coarse criterion")
		}
		for i, a := range d.schema.Attributes {
			present := d.u8() == 1
			if d.err == nil && present != (a.Kind == data.Categorical) {
				d.failf("categorical counts present %v on attribute %d of kind %d", present, i, a.Kind)
			}
			if d.err != nil {
				return nil
			}
			if !present {
				continue
			}
			if card := d.count(data.MaxCardinality, "category"); d.err == nil && card != a.Cardinality {
				d.failf("attribute %d has %d categories, model stores %d", i, a.Cardinality, card)
			}
			for code := 0; code < a.Cardinality && d.err == nil; code++ {
				copy(n.catCounts[i].Counts[code], d.i64s())
			}
		}
		for i := range d.schema.Attributes {
			if d.u8() == 0 {
				n.hist[i] = nil
				continue
			}
			bounds := d.f64s()
			cells := d.count(1<<24, "cell")
			if d.err != nil {
				return nil
			}
			for j, b := range bounds {
				if b != b || (j > 0 && b <= bounds[j-1]) {
					d.failf("histogram boundaries of attribute %d not ascending", i)
					return nil
				}
			}
			h := discretize.NewHistogram(bounds, d.schema.ClassCount)
			if cells != h.NumCells() {
				d.failf("histogram cell count mismatch")
				return nil
			}
			for cidx := 0; cidx < cells; cidx++ {
				copy(h.Counts[cidx], d.i64s())
			}
			n.hist[i] = h
		}
		if moments := d.u8() == 1; d.err == nil && moments != (d.t.momentBased != nil) {
			d.failf("moments present %v for method %q", moments, d.t.cfg.Method.Name())
			return nil
		} else if moments {
			m := split.NewMoments(d.schema)
			m.ClassTotals = d.counts("moment class total")
			for i, a := range d.schema.Attributes {
				numeric := d.u8() == 1
				if d.err == nil && numeric != (a.Kind == data.Numeric) {
					d.failf("moments of attribute %d stored as the wrong kind", i)
				}
				if d.err != nil {
					return nil
				}
				if numeric {
					nm := m.Num[i]
					nm.Count = d.counts("moment count")
					nm.Sum = d.i64s()
					nm.SqHi = d.u64slice()
					nm.SqLo = d.u64slice()
					k := d.schema.ClassCount
					if d.err == nil && (len(nm.Sum) != k || len(nm.SqHi) != k || len(nm.SqLo) != k) {
						d.failf("moment arity mismatch on attribute %d", i)
					}
					continue
				}
				if card := d.count(data.MaxCardinality, "moment category"); d.err == nil && card != a.Cardinality {
					d.failf("attribute %d has %d categories, moments store %d", i, a.Cardinality, card)
				}
				for code := 0; code < a.Cardinality && d.err == nil; code++ {
					copy(m.Cat[i].Counts[code], d.i64s())
				}
			}
			n.moments = m
		}
		// newInternal allocates bags only for numeric coarse criteria;
		// replace them with the persisted contents either way.
		if n.pending != nil {
			n.pending.Close()
		}
		if n.pushed != nil {
			n.pushed.Close()
		}
		pending := make([]int64, d.schema.ClassCount)
		n.pending = d.bag(pending)
		n.pushed = d.bag(nil)
		if d.err == nil && c.kind == data.Categorical && (n.pending.Len() != 0 || n.pushed.Len() != 0) {
			// Categorical coarse nodes have no stuck sets.
			d.failf("categorical node with stuck tuples")
		}
		n.left = d.node(depth + 1)
		n.right = d.node(depth + 1)
		if d.err != nil {
			return nil
		}
		for j, v := range n.classCounts {
			if v != n.left.classCounts[j]+n.right.classCounts[j]+pending[j] {
				d.failf("class counts %v, children and stuck set hold %v + %v + %v",
					n.classCounts, n.left.classCounts, n.right.classCounts, pending)
				return nil
			}
		}
		return n
	default:
		d.failf("unknown node tag %d", tag)
		return nil
	}
}
