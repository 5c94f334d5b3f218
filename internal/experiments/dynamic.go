package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/boatml/boat/internal/bootstrap"
	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/inmem"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/tree"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// bootstrapBuild runs the sampling phase of c on sample, its bootstrap
// trees on one pool of c.Parallelism workers.
func bootstrapBuild(c Config, schema *data.Schema, sample []data.Tuple) (*bootstrap.Node, bootstrap.Stats, error) {
	w, stop := inmem.NewPool(c.Parallelism).Start()
	defer stop()
	return bootstrap.BuildCoarse(schema, sample, bootstrap.Config{
		Trees:         c.Bootstraps,
		SubsampleSize: c.subsampleSize(),
		TreeConfig:    inmem.Config{Method: c.Method, MaxDepth: 4, MinSplit: 100},
		Seed:          c.Seed + 3,
	}, w)
}

// DynamicKind selects among the three dynamic-environment figures.
type DynamicKind int

const (
	// DynamicStable is Figure 13: chunks from the unchanged distribution
	// (with 10% noise) are inserted; the BOAT update cost is compared to
	// repeatedly rebuilding the tree from scratch (with the original
	// dataset conservatively counted as size zero, per the paper).
	DynamicStable DynamicKind = iota
	// DynamicChange is Figure 14: the arriving chunks come from the
	// shifted distribution, forcing partial rebuilds of the tree.
	DynamicChange
	// DynamicChunkSize is Figure 15: cumulative update time with 1-unit
	// chunks versus 2-unit chunks — the curves should nearly coincide.
	DynamicChunkSize
)

func (k DynamicKind) String() string {
	switch k {
	case DynamicStable:
		return "stable"
	case DynamicChange:
		return "change"
	case DynamicChunkSize:
		return "chunk-size"
	default:
		return fmt.Sprintf("DynamicKind(%d)", int(k))
	}
}

// RunDynamic reproduces Figures 13-15. The X coordinate of every row is
// the cumulative number of inserted paper-millions; the Algo column
// distinguishes the incremental-update curve from the repeated-rebuild
// curves (Figures 13/14) or the two chunk sizes (Figure 15).
func RunDynamic(fig string, kind DynamicKind, c Config) ([]Row, error) {
	c = c.normalized()
	switch kind {
	case DynamicChunkSize:
		rows1, trees1, err := c.updateCurve(fig, "Chunk-1", 1, 0, gen.Config{Function: 1, Noise: 0.10})
		if err != nil {
			return nil, err
		}
		rows2, trees2, err := c.updateCurve(fig, "Chunk-2", 2, 0, gen.Config{Function: 1, Noise: 0.10})
		if err != nil {
			return nil, err
		}
		// Both curves insert the same arrival units, so at every X both
		// reach they hold the same tuples and must hold the same tree
		// (Chunk-1's row at X is its X-th).
		for i, r := range rows2 {
			if one := trees1[int(r.X)-1]; !one.Equal(trees2[i]) {
				return nil, fmt.Errorf("%s inserted=%g: Chunk-1 and Chunk-2 trees differ: %s",
					fig, r.X, one.Diff(trees2[i]))
			}
		}
		return append(rows1, rows2...), nil
	case DynamicStable:
		return c.dynamicComparison(fig, gen.Config{Function: 1, Noise: 0.10}, false)
	case DynamicChange:
		return c.dynamicComparison(fig, gen.Config{Function: 1, Noise: 0.10}, true)
	default:
		return nil, fmt.Errorf("experiments: unknown dynamic kind %d", int(kind))
	}
}

// dynamicComparison produces the BOAT-Update curve plus the repeated
// rebuild curves (BOAT and RF-Hybrid built from scratch on the cumulative
// data, initial dataset counted as size zero per the paper's conservative
// comparison).
func (c Config) dynamicComparison(fig string, chunkCfg gen.Config, shiftChunks bool) ([]Row, error) {
	arrivCfg := chunkCfg
	if shiftChunks {
		arrivCfg.Shifted = true
	}
	rows, _, err := c.updateCurve(fig, "BOAT-Update", 2, boolTo(shiftChunks), chunkCfg)
	if err != nil {
		return nil, err
	}

	// Repeated rebuilds on the cumulative arrivals (sizes 2, 4, ...): the
	// rebuild at X builds on exactly the tuples the update curve inserted
	// up to X, the original dataset counted as size zero.
	hybridBuf, _ := c.avcBuffers(int64(c.MaxUnits)*c.Unit, 0)
	var cumBOAT, cumRF float64
	for units := 2; units <= c.MaxUnits; units += 2 {
		src, cleanup, err := c.arrivals(arrivCfg, 0, units, fig+"-rebuild")
		if err != nil {
			return rows, err
		}
		boatRes, err := c.runBOAT(src)
		if err != nil {
			cleanup()
			return rows, err
		}
		cumBOAT += boatRes.seconds
		rfRes, err := c.runRF(src, hybridBuf, false)
		cleanup()
		if err != nil {
			return rows, err
		}
		cumRF += rfRes.seconds
		rows = append(rows,
			Row{Figure: fig, X: float64(units), XLabel: "millions", Algo: "Rebuild-BOAT",
				Seconds: cumBOAT, Scans: boatRes.io.Scans, TuplesRead: boatRes.io.TuplesRead,
				Nodes: boatRes.tree.NumNodes()},
			Row{Figure: fig, X: float64(units), XLabel: "millions", Algo: "Rebuild-RF-Hybrid",
				Seconds: cumRF, Scans: rfRes.io.Scans, TuplesRead: rfRes.io.TuplesRead,
				Nodes: rfRes.tree.NumNodes()})
		c.logf("%s rebuild %d: BOAT cum %.2fs, RF-Hybrid cum %.2fs", fig, units, cumBOAT, cumRF)
	}
	return rows, nil
}

func boolTo(b bool) int {
	if b {
		return 1
	}
	return 0
}

// updateCurve builds an initial BOAT tree and inserts chunks of
// chunkUnits paper-millions until MaxUnits have arrived, reporting the
// cumulative update time after each chunk. Chunk i holds arrival units
// i·chunkUnits onward (see arrivals), so curves of different chunk sizes
// insert the same tuples. shifted != 0 draws the chunks from the shifted
// distribution (Figure 14). After every insert, outside the timed region,
// the maintained tree must equal a from-scratch in-memory build on the
// cumulative multiset (base plus every chunk so far, under the shared
// stopping rules); a mismatch is an error. The maintained trees come back
// beside the rows, one per row.
func (c Config) updateCurve(fig, algo string, chunkUnits int, shifted int, baseCfg gen.Config) ([]Row, []*tree.Tree, error) {
	baseN := 2 * c.Unit
	baseSrc, cleanup, err := c.makeSource(baseCfg, baseN, c.Seed+800, fig+"-base")
	if err != nil {
		return nil, nil, err
	}
	defer cleanup()
	all, err := data.ReadAll(baseSrc)
	if err != nil {
		return nil, nil, err
	}

	var st iostats.Stats
	bt, err := core.Build(baseSrc, c.boatConfig(&st))
	if err != nil {
		return nil, nil, err
	}
	defer bt.Close()

	chunkCfg := baseCfg
	if shifted != 0 {
		chunkCfg.Shifted = true
	}
	var rows []Row
	var trees []*tree.Tree
	var cumSeconds float64
	for units := 0; units < c.MaxUnits; {
		next := min(units+chunkUnits, c.MaxUnits)
		chunk, chunkCleanup, err := c.arrivals(chunkCfg, units, next, fig+"-chunk")
		if err != nil {
			return rows, trees, err
		}
		start := time.Now()
		upd, err := bt.Insert(chunk)
		if err != nil {
			chunkCleanup()
			return rows, trees, err
		}
		cumSeconds += time.Since(start).Seconds()
		units = next
		arrived, err := data.ReadAll(chunk)
		chunkCleanup()
		if err != nil {
			return rows, trees, err
		}
		all = append(all, arrived...)
		got := bt.Tree()
		if ref := inmem.Build(baseSrc.Schema(), all, c.grow()); !got.Equal(ref) {
			return rows, trees, fmt.Errorf("%s %s inserted=%d: maintained tree differs from a from-scratch build: %s",
				fig, algo, units, got.Diff(ref))
		}
		rows = append(rows, Row{
			Figure: fig, X: float64(units), XLabel: "millions-inserted",
			Algo: algo, Seconds: cumSeconds,
			Scans: st.Scans(), TuplesRead: st.TuplesRead(), SpillTuples: st.SpillTuples(),
			Nodes: got.NumNodes(),
		})
		trees = append(trees, got)
		c.logf("%s %s inserted=%d cum=%.2fs (rebuilt=%d migrated=%d)",
			fig, algo, units, cumSeconds, upd.RebuiltSubtrees, upd.MigratedTuples)
	}
	return rows, trees, nil
}

// arrivals returns the dynamic figures' arriving tuples from unit from up
// to unit to: arrival unit u is one paper-million drawn from cfg with
// seed Seed+1001+u, whatever chunk it arrives in. So Figure 15's 2-unit
// chunk i is its 1-unit chunks 2i and 2i+1, and the rebuild curves of
// Figures 13 and 14 build on exactly what the update curve inserted.
func (c Config) arrivals(cfg gen.Config, from, to int, tag string) (data.Source, func(), error) {
	var schema *data.Schema
	var tuples []data.Tuple
	for u := from; u < to; u++ {
		src, err := gen.NewSource(cfg, c.Unit, c.Seed+1001+int64(u))
		if err != nil {
			return nil, nil, err
		}
		unit, err := data.ReadAll(src)
		if err != nil {
			return nil, nil, err
		}
		schema, tuples = src.Schema(), append(tuples, unit...)
	}
	return c.materialize(data.NewMemSource(schema, tuples), fmt.Sprintf("%s-%d-%d", tag, from, to))
}
