// Command boatstream soaks the streaming-update subsystem with the
// paper's dynamic environment (Section 4): a sliding window of data
// chunks over a maintained BOAT tree. Every round inserts the newest
// chunk and deletes the expired one, so the tree's net size stays
// constant while every update path — batch statistics, stuck-set
// bookkeeping, pending-removal cancellation on re-arriving data — stays
// exercised. Sustained throughput is reported as the run progresses.
//
// With -serve, a background goroutine classifies data through
// predict.Maintained for the whole soak, exercising the epoch-swapped
// serving path concurrently with the updates (run under `go run -race`
// in CI). With -paritycheck, the final maintained tree is compared
// node-for-node against a from-scratch build on the final window's
// dataset — the incremental-maintenance exactness guarantee.
//
// Observability: a diagnostics HTTP server runs on -listen (default
// :9090) exposing the metrics registry in Prometheus text format at
// /metrics plus /healthz, /readyz, /debug/vars and /debug/pprof; a
// background sampler feeds runtime gauges and windowed tuples/sec
// rates. -metricsjson dumps the registry as JSON at exit, and
// -metricsinterval additionally flushes it periodically (atomic
// temp+rename, so a killed soak still leaves metrics on disk).
// -logjson/-loglevel control the structured log stream on stderr.
//
// Usage:
//
//	boatstream -rounds 50
//	boatstream -rounds 200 -paritycheck
//	boatstream -serve -rounds 100 -metricsjson metrics.json
//	boatstream -serve -listen :9090 -metricsjson metrics.json -metricsinterval 5s
//	boatstream -rounds 50 -listen ""
package main

import (
	"flag"
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"github.com/boatml/boat/internal/core"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/gen"
	"github.com/boatml/boat/internal/iostats"
	"github.com/boatml/boat/internal/obs"
	"github.com/boatml/boat/internal/predict"
	"github.com/boatml/boat/internal/split"
)

func main() {
	var (
		tuples       = flag.Int64("tuples", 40_000, "base training dataset size")
		chunkSize    = flag.Int64("chunk", 10_000, "tuples per sliding-window chunk")
		window       = flag.Int("window", 3, "live chunks besides the base data")
		rounds       = flag.Int("rounds", 50, "insert+delete rounds to replay")
		function     = flag.Int("function", 1, "generator function for the synthetic data")
		method       = flag.String("method", "gini", "split selection: gini | entropy | quest")
		threshold    = flag.Int64("threshold", 4000, "stop-at-threshold leaf family size")
		sample       = flag.Int("sample", 8000, "BOAT sample size (0 = auto)")
		seed         = flag.Int64("seed", 1, "sampling and generator seed")
		parallelism  = flag.Int("parallelism", 0, "worker goroutines (0 = GOMAXPROCS)")
		serve        = flag.Bool("serve", false, "serve predictions concurrently with the updates via the epoch-swapped snapshot path")
		parity       = flag.Bool("paritycheck", false, "after the soak, compare the maintained tree against a from-scratch build on the final window")
		metricsOut   = flag.String("metricsjson", "", `write the update metrics registry as JSON to this file ("-" = stdout)`)
		metricsEvery = flag.Duration("metricsinterval", 0, "flush -metricsjson to disk at this interval during the soak (0 = only at exit)")
		listen       = flag.String("listen", ":9090", `diagnostics HTTP server address for /metrics, /healthz, /readyz and /debug/pprof ("" disables)`)
		logJSON      = flag.Bool("logjson", false, "emit structured logs as JSON instead of text")
		logLevel     = flag.String("loglevel", "info", "log level: debug | info | warn | error")
	)
	flag.Parse()
	logger, err := obs.NewLogger(os.Stderr, obs.LogConfig{JSON: *logJSON, Level: *logLevel})
	fatal(err)
	if *window < 1 || *rounds < 0 {
		fatal(fmt.Errorf("-window must be >= 1 and -rounds >= 0"))
	}
	m, err := methodFor(*method)
	fatal(err)

	// Twice as many distinct chunk contents as window slots: every round
	// inserts data the pending-removal buckets have not seen (the miss
	// path) and every chunk is eventually re-inserted after its deletion
	// was queued and drained (the cancellation path).
	slots := 2 * *window
	genCfg := gen.Config{Function: *function}
	base := gen.MustSource(genCfg, *tuples, *seed)
	chunks := make([]data.Source, slots)
	for i := range chunks {
		chunks[i] = gen.MustSource(genCfg, *chunkSize, *seed+int64(10+i))
	}

	if *metricsEvery > 0 && (*metricsOut == "" || *metricsOut == "-") {
		fatal(fmt.Errorf("-metricsinterval requires -metricsjson FILE"))
	}
	var st iostats.Stats
	var metrics *obs.Registry
	if *metricsOut != "" || *listen != "" {
		metrics = obs.NewRegistry()
	}
	cfg := core.Config{
		Method: m, StopThreshold: *threshold, StopAtThreshold: *threshold > 0,
		SampleSize: *sample, Seed: *seed, Parallelism: *parallelism,
		Stats: &st, Metrics: metrics, Logger: logger,
	}
	start := time.Now()
	bt, err := core.Build(base, cfg)
	fatal(err)
	defer bt.Close()
	logger.Info("base tree built", "seconds", time.Since(start).Seconds(),
		"tuples", *tuples)

	// Live telemetry: the sampler feeds runtime gauges and windowed
	// tuples/sec rates into the registry; the diagnostics server exposes
	// it all over HTTP. Both are fully disabled (no goroutine, no socket)
	// when their inputs are off, and both shut down before the tree does.
	sampler := obs.StartSampler(metrics, obs.SamplerConfig{
		Rates:  []string{"update.tuples", "predict.tuples"},
		Logger: logger,
	})
	defer sampler.Close()
	diag, err := obs.StartServer(obs.ServerConfig{
		Addr: *listen, Registry: metrics, Ready: bt.Ready, Logger: logger,
	})
	fatal(err)
	defer diag.Close()
	if diag != nil {
		logger.Info("diagnostics server listening", "addr", diag.Addr())
	}

	// Reach the steady state: the window holds `window` live chunks.
	for i := 0; i < *window; i++ {
		_, err := bt.Insert(chunks[i])
		fatal(err)
	}

	// The concurrent server: classify chunk data through the maintained
	// predictor until the soak ends, counting calls and recording the
	// highest epoch served. Predictions never block on in-flight updates;
	// they read the last published snapshot.
	var served, lastEpoch atomic.Uint64
	done := make(chan struct{})
	stopped := make(chan struct{})
	if *serve {
		mp := predict.NewMaintained(bt, predict.Config{Parallelism: *parallelism, Metrics: metrics})
		go func() {
			defer close(stopped)
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				_, epoch, err := mp.Predict(chunks[i%slots])
				if err != nil {
					logger.Error("concurrent predict failed", "err", err)
					return
				}
				served.Add(1)
				lastEpoch.Store(epoch)
			}
		}()
	} else {
		close(stopped)
	}

	// Periodic metrics flush: snapshot the registry to -metricsjson every
	// -metricsinterval so a soak killed mid-run still leaves its latest
	// metrics on disk. Each flush is atomic (temp file + rename), so a
	// scraper or a kill mid-write never observes a torn file.
	var flusherStopped chan struct{}
	if *metricsEvery > 0 {
		flusherStopped = make(chan struct{})
		go func() {
			defer close(flusherStopped)
			tick := time.NewTicker(*metricsEvery)
			defer tick.Stop()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					if err := flushMetrics(metrics, *metricsOut); err != nil {
						logger.Warn("periodic metrics flush failed", "err", err)
					}
				}
			}
		}()
	}

	var total core.UpdateStats
	report := *rounds / 10
	if report < 1 {
		report = 1
	}
	soakStart := time.Now()
	for r := 0; r < *rounds; r++ {
		ins, err := bt.Insert(chunks[(*window+r)%slots])
		fatal(err)
		del, err := bt.Delete(chunks[r%slots])
		fatal(err)
		accumulate(&total, ins)
		accumulate(&total, del)
		if (r+1)%report == 0 || r+1 == *rounds {
			elapsed := time.Since(soakStart).Seconds()
			logger.Info("soak progress", "round", r+1, "rounds", *rounds,
				"tuples_per_sec", float64(r+1)*2*float64(*chunkSize)/elapsed,
				"rebuilt_subtrees", total.RebuiltSubtrees,
				"refitted_leaves", total.RefittedLeaves)
		}
	}
	elapsed := time.Since(soakStart).Seconds()
	close(done)
	<-stopped
	if flusherStopped != nil {
		<-flusherStopped
	}

	snap, err := bt.Snapshot()
	fatal(err)
	fmt.Printf("=== boatstream: %d rounds, window %d x %d tuples, base %d ===\n",
		*rounds, *window, *chunkSize, *tuples)
	if elapsed > 0 {
		fmt.Printf("sustained rate:     %.0f tuples/sec (%.2fs total)\n",
			float64(*rounds)*2*float64(*chunkSize)/elapsed, elapsed)
	}
	fmt.Printf("update stats:       chunks=%d rebuilt_subtrees=%d rebuild_tuples=%d migrated=%d refitted_leaves=%d\n",
		total.Chunks, total.RebuiltSubtrees, total.RebuildTuples,
		total.MigratedTuples, total.RefittedLeaves)
	fmt.Printf("final epoch:        %d (tree: %d nodes, depth %d)\n",
		snap.Epoch, snap.Tree.NumNodes(), snap.Tree.Depth())
	if *serve {
		fmt.Printf("concurrent serving: %d predictions, last epoch served %d\n",
			served.Load(), lastEpoch.Load())
		if served.Load() == 0 {
			fatal(fmt.Errorf("concurrent server made no predictions"))
		}
	}
	fmt.Printf("io totals:          %s\n", st.Snapshot().String())
	fatal(bt.CheckConsistency())

	if *parity {
		fatal(parityCheck(bt, base, chunks, *window, *rounds, cfg, logger))
		fmt.Printf("parity check:       maintained tree identical to from-scratch rebuild\n")
	}
	os.Exit(dumpMetrics(metrics, *metricsOut))
}

// parityCheck rebuilds a tree from scratch on the exact dataset the
// maintained tree should now represent — the base data plus the window's
// live chunks — and requires the two trees to be node-for-node identical
// (the Section 4 exactness guarantee for Insert and Delete).
func parityCheck(bt *core.Tree, base data.Source, chunks []data.Source,
	window, rounds int, cfg core.Config, logger interface{ Info(string, ...any) }) error {
	start := time.Now()
	tuples, err := data.ReadAll(base)
	if err != nil {
		return err
	}
	for j := 0; j < window; j++ {
		ct, err := data.ReadAll(chunks[(rounds+j)%len(chunks)])
		if err != nil {
			return err
		}
		tuples = append(tuples, ct...)
	}
	cfg.Metrics = nil
	cfg.Stats = nil
	fresh, err := core.Build(data.NewMemSource(base.Schema(), tuples), cfg)
	if err != nil {
		return fmt.Errorf("parity rebuild: %w", err)
	}
	defer fresh.Close()
	maintained, rebuilt := bt.Tree(), fresh.Tree()
	logger.Info("parity rebuild finished", "seconds", time.Since(start).Seconds(),
		"tuples", len(tuples))
	if !maintained.Equal(rebuilt) {
		return fmt.Errorf("maintained tree diverged from from-scratch rebuild:\n%s",
			maintained.Diff(rebuilt))
	}
	return nil
}

func accumulate(total *core.UpdateStats, u core.UpdateStats) {
	total.TuplesSeen += u.TuplesSeen
	total.Chunks += u.Chunks
	total.RebuiltSubtrees += u.RebuiltSubtrees
	total.RebuildTuples += u.RebuildTuples
	total.MigratedTuples += u.MigratedTuples
	total.RefittedLeaves += u.RefittedLeaves
}

// dumpMetrics writes the registry as JSON to path ("" = disabled, "-" =
// stdout), returning a process exit code.
func dumpMetrics(metrics *obs.Registry, path string) int {
	if metrics == nil || path == "" {
		return 0
	}
	if path == "-" {
		if err := metrics.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "boatstream: metricsjson: %v\n", err)
			return 1
		}
		return 0
	}
	if err := flushMetrics(metrics, path); err != nil {
		fmt.Fprintf(os.Stderr, "boatstream: metricsjson: %v\n", err)
		return 1
	}
	return 0
}

// flushMetrics writes the registry snapshot to path atomically: the JSON
// lands in a sibling temp file, is synced, and replaces path with a
// rename — readers always see either the previous complete snapshot or
// the new one, never a torn write.
func flushMetrics(metrics *obs.Registry, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = metrics.WriteJSON(f)
	if serr := f.Sync(); err == nil {
		err = serr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

func methodFor(name string) (split.Method, error) {
	switch name {
	case "gini":
		return split.NewGini(), nil
	case "entropy":
		return split.NewEntropy(), nil
	case "quest":
		return split.NewQuestLike(), nil
	default:
		return nil, fmt.Errorf("unknown method %q (want gini, entropy or quest)", name)
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "boatstream: %v\n", err)
		os.Exit(1)
	}
}
