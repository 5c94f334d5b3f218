package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/split"
)

// advSchema is the adversarial update-test schema: two numeric attributes
// spanning negative values, one categorical attribute at the maximum
// cardinality so high codes are schema-valid but unseen by the base data.
func advSchema() *data.Schema {
	return data.MustSchema([]data.Attribute{
		{Name: "x", Kind: data.Numeric},
		{Name: "y", Kind: data.Numeric},
		{Name: "c", Kind: data.Categorical, Cardinality: 64},
	}, 2)
}

// advTuples generates deterministic tuples. Base tuples (adversarial =
// false) are clean: finite values, categorical codes 0..3. Adversarial
// tuples mix in NaN (missing) numeric values, negative thresholds-crossing
// values, and high categorical codes (4..63) the base tree never saw.
func advTuples(n int, seed int64, adversarial bool) []data.Tuple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]data.Tuple, n)
	for i := range out {
		x := rng.Float64()*200 - 100
		y := rng.Float64()*200 - 100
		code := rng.Intn(4)
		if adversarial {
			code = rng.Intn(64)
			if rng.Intn(8) == 0 {
				x = math.NaN()
			}
			if rng.Intn(8) == 0 {
				y = math.NaN()
			}
		}
		class := 0
		if x+y > 0 || code%3 == 0 { // NaN comparisons are false: class falls to the code term
			class = 1
		}
		if rng.Intn(20) == 0 {
			class = 1 - class
		}
		out[i] = data.Tuple{Values: []float64{x, y, float64(code)}, Class: class}
	}
	return out
}

// TestUpdateChunkedMatchesRow is the update-path parity property test: a
// BOAT tree maintained with the columnar chunk router must stay
// bit-identical to one whose update chunks are routed one tuple at a time
// by the per-tuple oracle (rowUpdate) AND to a from-scratch reference
// build on the evolving dataset — including under
// adversarial chunks carrying NaN numeric values, negative values, and
// unseen high categorical codes, at Parallelism 1 and 8.
func TestUpdateChunkedMatchesRow(t *testing.T) {
	schema := advSchema()
	base := advTuples(6000, 1, false)
	var chunks [][]data.Tuple
	for s := int64(2); s <= 4; s++ {
		chunks = append(chunks, advTuples(2500, s, true))
	}
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 5, MinSplit: 50}
	for _, p := range []int{1, 8} {
		t.Run(fmt.Sprintf("P%d", p), func(t *testing.T) {
			cfg := Config{
				Method: split.NewGini(), MaxDepth: 5, MinSplit: 50,
				SampleSize: 1500, Seed: 31, Parallelism: p,
			}
			src := data.NewMemSource(schema, data.CloneTuples(base))
			chTree, err := Build(src, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer chTree.Close()
			rowTree, err := Build(data.NewMemSource(schema, data.CloneTuples(base)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer rowTree.Close()

			all := data.CloneTuples(base)
			for i, ct := range chunks {
				chunk := data.NewMemSource(schema, data.CloneTuples(ct))
				chUpd, err := chTree.Insert(chunk)
				if err != nil {
					t.Fatalf("chunked insert %d: %v", i, err)
				}
				rowUpd, err := rowTree.rowUpdate(chunk, +1)
				if err != nil {
					t.Fatalf("row insert %d: %v", i, err)
				}
				if chUpd.Chunks == 0 {
					t.Error("chunked path reported zero chunks")
				}
				if rowUpd.Chunks != 0 {
					t.Errorf("row baseline reported %d chunks", rowUpd.Chunks)
				}
				all = append(all, ct...)
				requireEqual(t, fmt.Sprintf("chunked vs row after insert %d", i),
					chTree.Tree(), rowTree.Tree())
				ref := inmem.Build(schema, data.CloneTuples(all), g)
				requireEqual(t, fmt.Sprintf("chunked vs rebuild after insert %d", i),
					chTree.Tree(), ref)
				if err := chTree.CheckConsistency(); err != nil {
					t.Fatalf("chunked tree after insert %d: %v", i, err)
				}
				if err := rowTree.CheckConsistency(); err != nil {
					t.Fatalf("row tree after insert %d: %v", i, err)
				}
			}

			// Slide the window: expire the first adversarial chunk again —
			// its NaN and unseen-code tuples must be found and removed from
			// whatever buffers they landed in.
			expired := data.NewMemSource(schema, data.CloneTuples(chunks[0]))
			if _, err := chTree.Delete(expired); err != nil {
				t.Fatalf("chunked delete: %v", err)
			}
			if _, err := rowTree.rowUpdate(expired, -1); err != nil {
				t.Fatalf("row delete: %v", err)
			}
			all = subtract(all, chunks[0])
			requireEqual(t, "chunked vs row after delete", chTree.Tree(), rowTree.Tree())
			ref := inmem.Build(schema, data.CloneTuples(all), g)
			requireEqual(t, "chunked vs rebuild after delete", chTree.Tree(), ref)
			if err := chTree.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRouteNaNTakesPinnedEdge pins the satellite bugfix: a NaN value on
// the split attribute must take the missing-value edge (right) in every
// write path, not stick in the confidence interval. A tree maintained
// over NaN-bearing chunks staying exact (checked above) depends on it;
// here we check the direct observable — no NaN tuple is ever stuck.
func TestRouteNaNTakesPinnedEdge(t *testing.T) {
	schema := advSchema()
	base := advTuples(5000, 7, false)
	bt, err := Build(data.NewMemSource(schema, base), Config{
		Method: split.NewGini(), MaxDepth: 4, MinSplit: 50,
		SampleSize: 1200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	// All-NaN numeric values: every tuple must reach a leaf via pinned
	// right edges (or categorical splits), never a stuck set.
	nanChunk := make([]data.Tuple, 200)
	for i := range nanChunk {
		nanChunk[i] = data.Tuple{
			Values: []float64{math.NaN(), math.NaN(), float64(i % 4)},
			Class:  i % 2,
		}
	}
	if _, err := bt.Insert(data.NewMemSource(schema, nanChunk)); err != nil {
		t.Fatal(err)
	}
	if err := bt.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var stuckNaN int
	var walk func(*bnode)
	walk = func(n *bnode) {
		if n == nil || n.isLeaf() {
			return
		}
		if n.pending != nil {
			n.pending.ForEachChunk(func(ch *data.Chunk, idx []int32) error {
				for _, tp := range ch.GatherRows(idx) {
					if n.coarse.kind == data.Numeric && math.IsNaN(tp.Values[n.coarse.attr]) {
						stuckNaN++
					}
				}
				return nil
			})
		}
		walk(n.left)
		walk(n.right)
	}
	walk(bt.root)
	if stuckNaN > 0 {
		t.Errorf("%d NaN tuples stuck in confidence intervals", stuckNaN)
	}
}

// TestOutOfDomainTuplesRejected: a categorical code outside [0,
// Cardinality), a class outside [0, ClassCount) and a NaN code index the
// count kernels' tables out of range. Build (through the sample check or
// the cleanup scan's chunk check), Insert and Delete must each return an
// error wrapping data.ErrSchemaMismatch that names the attribute, and an
// update whose only chunk fails must leave the tree and its epoch alone.
func TestOutOfDomainTuplesRejected(t *testing.T) {
	schema := advSchema()
	base := advTuples(5000, 3, false)
	bad := []struct {
		name string
		tp   data.Tuple
		want string
	}{
		{"code 70", data.Tuple{Values: []float64{1, 2, 70}, Class: 0}, `"c"`},
		{"class 5", data.Tuple{Values: []float64{1, 2, 3}, Class: 5}, "class"},
		{"NaN code", data.Tuple{Values: []float64{1, 2, math.NaN()}, Class: 1}, `"c"`},
	}
	cfg := Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50, SampleSize: 1000, Seed: 5}
	requireDomainErr := func(t *testing.T, op string, err error, want string) {
		t.Helper()
		if !errors.Is(err, data.ErrSchemaMismatch) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: got %v, want a schema mismatch naming %s", op, err, want)
		}
	}
	bt, err := Build(data.NewMemSource(schema, data.CloneTuples(base)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	before := bt.Tree()
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			// Sampled: every tuple is in the sample, bootstrap never runs.
			all := append(data.CloneTuples(base), tc.tp)
			whole := cfg
			whole.SampleSize = len(all)
			_, err := Build(data.NewMemSource(schema, all), whole)
			requireDomainErr(t, "build, sampled", err, tc.want)

			// Unsampled: a clean skeleton, then the bad tuple in the scan.
			sb, err := NewScanBench(data.NewMemSource(schema, data.CloneTuples(base)), cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sb.tree.cleanupScan(data.NewMemSource(schema, all), sb.root, nil, nil)
			sb.Close()
			requireDomainErr(t, "cleanup scan", err, tc.want)

			for _, op := range []struct {
				name string
				fn   func(data.Source) (UpdateStats, error)
			}{{"insert", bt.Insert}, {"delete", bt.Delete}} {
				epoch := bt.epoch.Load()
				_, err := op.fn(data.NewMemSource(schema, []data.Tuple{tc.tp}))
				requireDomainErr(t, op.name, err, tc.want)
				if got := bt.epoch.Load(); got != epoch {
					t.Fatalf("%s: failed update moved the epoch from %d to %d", op.name, epoch, got)
				}
				requireEqual(t, op.name+" left the tree unchanged", bt.Tree(), before)
				if err := bt.CheckConsistency(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSnapshotEpochs checks the serve-while-update publication semantics:
// epochs increment once per completed update, snapshots are cached per
// epoch, failed updates leave the epoch (and the served snapshot) alone,
// and Close invalidates future snapshots but not held ones.
func TestSnapshotEpochs(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.1}, 4000, 1)
	bt, err := Build(base, Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50, SampleSize: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s0, err := bt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s0.Epoch != 0 {
		t.Errorf("fresh tree epoch = %d", s0.Epoch)
	}
	if s0.Tree == nil || s0.Flat == nil {
		t.Fatal("snapshot missing materialized or compiled tree")
	}
	again, _ := bt.Snapshot()
	if again != s0 {
		t.Error("same-epoch snapshot not cached")
	}

	chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.1}, 2000, 2)
	if _, err := bt.Insert(chunk); err != nil {
		t.Fatal(err)
	}
	s1, err := bt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if s1.Epoch != 1 {
		t.Errorf("post-insert epoch = %d", s1.Epoch)
	}
	requireEqual(t, "published snapshot vs materialization", s1.Tree, bt.Tree())

	// A failed update (schema mismatch) must not advance the epoch or
	// disturb the published snapshot.
	other := data.NewMemSource(data.MustSchema([]data.Attribute{{Name: "z", Kind: data.Numeric}}, 2), nil)
	if _, err := bt.Insert(other); err == nil {
		t.Fatal("schema mismatch accepted")
	}
	s2, _ := bt.Snapshot()
	if s2 != s1 {
		t.Error("failed update disturbed the published snapshot")
	}

	bt.Close()
	if _, err := bt.Snapshot(); err == nil {
		t.Error("snapshot of a closed tree should fail")
	}
	// The held snapshot outlives Close.
	if s1.Tree.Root == nil || s1.Flat == nil {
		t.Error("held snapshot invalidated by Close")
	}
}

// TestConcurrentSnapshotDuringUpdate hammers Snapshot from reader
// goroutines while updates run: under the race detector this validates
// the lock-free serving path, and epochs observed by any one reader must
// be monotone with every snapshot fully published.
func TestConcurrentSnapshotDuringUpdate(t *testing.T) {
	base := gen.MustSource(gen.Config{Function: 1, Noise: 0.1}, 4000, 1)
	bt, err := Build(base, Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50, SampleSize: 1000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	if _, err := bt.Snapshot(); err != nil { // start serving
		t.Fatal(err)
	}

	const rounds = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errc := make(chan error, 8)
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, err := bt.Snapshot()
				if err != nil {
					errc <- err
					return
				}
				if s.Epoch < last {
					errc <- fmt.Errorf("epoch went backwards: %d after %d", s.Epoch, last)
					return
				}
				last = s.Epoch
				if s.Tree == nil || s.Flat == nil {
					errc <- fmt.Errorf("partially published snapshot at epoch %d", s.Epoch)
					return
				}
			}
		}()
	}
	// Two updaters race each other too: updates must serialize cleanly.
	var uwg sync.WaitGroup
	for u := 0; u < 2; u++ {
		uwg.Add(1)
		go func(u int) {
			defer uwg.Done()
			for i := 0; i < rounds; i++ {
				chunk := gen.MustSource(gen.Config{Function: 1, Noise: 0.1}, 1000, int64(100+10*u+i))
				if _, err := bt.Insert(chunk); err != nil {
					errc <- err
					return
				}
				if _, err := bt.Delete(chunk); err != nil {
					errc <- err
					return
				}
			}
		}(u)
	}
	uwg.Wait()
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	s, err := bt.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(2 * 2 * rounds); s.Epoch != want {
		t.Errorf("final epoch = %d, want %d", s.Epoch, want)
	}
	// Every insert was paired with a delete: the final tree is the base tree.
	g := inmem.Config{Method: split.NewGini(), MaxDepth: 4, MinSplit: 50}
	all, _ := data.ReadAll(base)
	requireEqual(t, "after paired insert/delete rounds", bt.Tree(),
		inmem.Build(base.Schema(), data.CloneTuples(all), g))
}

// BenchmarkUpdate measures sustained sliding-window maintenance — the
// paper's dynamic environment and the boatstream driver's workload: each
// operation inserts the newest data chunk and deletes the expired one, so
// the tree's net size stays constant while every update path (batch
// statistics, stuck-set bookkeeping, pending-removal cancellation on
// re-arriving data, misses on fresh data) stays exercised.
// StopAtThreshold keeps leaf families as stored buffers without in-memory
// subtrees, so routing and statistics maintenance dominate.
func BenchmarkUpdate(b *testing.B) {
	const (
		chunkTuples = 10000
		window      = 3 // live chunks besides the base data
		slots       = 6 // distinct chunk contents cycled through
	)
	base := gen.MustSource(gen.Config{Function: 1}, 40000, 1)
	chunks := make([]data.Source, slots)
	for i := range chunks {
		chunks[i] = gen.MustSource(gen.Config{Function: 1}, chunkTuples, int64(10+i))
	}
	bt, err := Build(base, Config{
		Method: split.NewGini(), StopThreshold: 4000, StopAtThreshold: true,
		SampleSize: 8000, BootstrapTrees: 5, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	// Reach the steady state: the window holds `window` live chunks.
	for i := 0; i < window; i++ {
		if _, err := bt.Insert(chunks[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bt.Insert(chunks[(window+i)%slots]); err != nil {
			b.Fatal(err)
		}
		if _, err := bt.Delete(chunks[i%slots]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	elapsed := b.Elapsed().Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)*2*chunkTuples/elapsed, "tuples/sec")
	}
}
