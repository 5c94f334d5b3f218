package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/boatml/boat"
	"github.com/boatml/boat/internal/data"
	"github.com/boatml/boat/internal/predict"
)

// workload is one named set of inputs and load.
type workload struct {
	name, why string
	run       func(p params) (*outcome, error)
}

var workloads = []workload{
	{"grow-fig4", "The paper's Fig-4 build (10 paper-millions of 25k tuples, 6 inputs): frontier rebuilds, bootstrap and the in-memory builder dominate, the scan barely matters.",
		func(p params) (*outcome, error) { return runGrow(p, growFig4) }},
	{"grow-shallow", "A coarse 3-node build over an age-clustered columnar file: no rebuilds, so the cleanup scan, verification and sampling dominate and zone maps fire.",
		func(p params) (*outcome, error) { return runGrow(p, growShallow) }},
	{"stream-window", "Closed-loop sliding-window Insert/Delete on 4 maintained models: route-chunk, re-verification and fat-leaf refits.",
		func(p params) (*outcome, error) { return runStream(p, streamWindow) }},
	{"stream-serve", "Open-loop updates beside a closed-loop Maintained.Predict reader: catches update speed-ups that steal the reader's core.",
		func(p params) (*outcome, error) { return runStream(p, streamServe) }},
}

// params configures one run.
type params struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	// scale multiplies every input size and the open-loop period. It is 1
	// except in the self-test, which runs at a tiny scale.
	scale float64
	// dir receives the input and spill files; traceOut the traced pass's
	// Chrome trace ("" = none).
	dir, traceOut string
}

// n scales a tuple count, keeping it at least 1.
func (p params) n(x int64) int64 {
	return max(1, int64(math.Round(float64(x)*p.scale)))
}

// inputSeed derives the generator seed of one part of one independent
// input of a run: part 0 is a dataset or base, parts 1.. are chunks.
func (p params) inputSeed(input, part int) int64 {
	return p.seed*1_000_000 + int64(input)*1_000 + int64(part)
}

// outcome is one run's result before units are attached.
type outcome struct {
	attempted, failed int64
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: map[string]float64{}} }

// setSetup records the median set-up time, scaled by the reference kernel
// sampled through the set-ups, and as measured.
func (o *outcome) setSetup(setups []float64, ref *refClock) {
	ref.sample()
	o.metrics["unscaled.setup_s"] = median(setups)
	o.metrics["setup_s"] = median(setups) * ref.scale()
}

const (
	// growSetups set-ups per grow input (a stream model is set up once);
	// setup_s is the median of a run's set-ups.
	growSetups = 3
	// writeShare of --seconds goes to the timed write phase and the rest
	// to the quiescent read phase (stream-serve reads during its writes).
	writeShare = 0.8
	minWrites  = 3
	// The traced pass runs at least this many write ops untraced, then as
	// many traced.
	tracedBuilds  = 3
	tracedUpdates = 10
	// The read load: 1,000-tuple holdout batches, cycled.
	holdoutBatches = 64
	batchRows      = 1000
	stallThreshold = 10 * time.Millisecond
	// chunkRows is the row capacity of the external data.scan_s pass (the
	// library's default chunk size).
	chunkRows = 4096
)

// f1 is Agrawal function 1 with 5% label noise, the generator setting of
// every workload.
var f1 = boat.SyntheticConfig{Function: 1, Noise: 0.05}

// ---------------------------------------------------------------------------
// Builds

// growSpec is a file-backed build workload. Sizes are at scale 1.
type growSpec struct {
	tuples, sample, subsample, threshold int64
	// inputs independent datasets are grown round-robin. Build cost
	// depends on the noise splits of each dataset, so a run covers several
	// to keep its medians steady from seed to seed.
	inputs int
	// clustered sorts the input on age and writes it as a columnar .boatc
	// file; otherwise it is an unsorted 40-byte-record row file.
	clustered bool
}

var (
	// growFig4 is the paper's Fig-4 point of 10 paper-millions with
	// 1 paper-million = 25k tuples: sample 0.2, subsample 0.05 and stop
	// threshold 1.5 paper-millions, b = 20.
	growFig4 = growSpec{tuples: 250_000, sample: 5_000, subsample: 1_250, threshold: 37_500, inputs: 6}
	// growShallow's threshold is 3/4 of the input, the ratio of the
	// paper's smallest Fig-4 point: the final tree has 3 nodes.
	growShallow = growSpec{tuples: 1_000_000, sample: 10_000, subsample: 2_500, threshold: 750_000, inputs: 1, clustered: true}
)

func runGrow(p params, s growSpec) (*outcome, error) {
	o := newOutcome()
	n := p.n(s.tuples)
	inputs := make([]boat.Source, s.inputs)
	var setups []float64
	var sref refClock
	sref.sample()
	for i := 0; i < growSetups*s.inputs; i++ {
		k := i % s.inputs
		start := time.Now()
		src, err := writeInput(filepath.Join(p.dir, fmt.Sprintf("input-%d", k)), s.clustered, n, p.inputSeed(k, 0))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		inputs[k] = src
		sref.tick()
	}
	o.setSetup(setups, &sref)
	batches, holdoutTuples, err := holdout(p)
	if err != nil {
		return nil, err
	}

	opts := boat.Options{
		Method:          boat.Gini(),
		SampleSize:      int(p.n(s.sample)),
		SubsampleSize:   int(p.n(s.subsample)),
		BootstrapTrees:  20,
		StopThreshold:   p.n(s.threshold),
		StopAtThreshold: true,
		Seed:            p.seed,
		TempDir:         p.dir,
	}
	// Grow i builds input i mod inputs. A grown tree is served the way a
	// static tree is, through a compiled Predictor, so no model outlives
	// its build.
	trees := make([][]*boat.DecisionTree, s.inputs)
	grows := 0
	grow := func(opts boat.Options) (int, time.Duration, boat.GrowStats, error) {
		k := grows % s.inputs
		grows++
		start := time.Now()
		m, err := boat.Grow(inputs[k], opts)
		d := time.Since(start)
		o.attempted++
		if err != nil {
			return k, d, boat.GrowStats{}, fmt.Errorf("grow: %w", err)
		}
		defer m.Close()
		trees[k] = append(trees[k], m.Tree())
		return k, d, m.BuildStats(), nil
	}

	if _, _, _, err := grow(opts); err != nil { // warm-up
		return nil, err
	}
	lat := make([][]time.Duration, s.inputs)
	var ref refClock
	ref.sample()
	if !p.traced {
		start := time.Now()
		for grows <= max(minWrites, s.inputs) || time.Since(start).Seconds() < p.seconds*writeShare {
			k, d, _, err := grow(opts)
			if err != nil {
				return nil, err
			}
			lat[k] = append(lat[k], d)
			ref.tick()
		}
		ref.sample()
		all := pooled(lat)
		o.metrics["write_p50_scaled_s"] = meanOfMedians(lat) * ref.scale()
		o.metrics["write_tuples_per_scaled_s"] = float64(n) * float64(len(all)) / sum(all) / ref.scale()
	} else {
		ops := max(tracedBuilds, s.inputs)
		var rt runtimeDelta
		var plain, traced []time.Duration
		for i := 0; i < ops; i++ {
			rt.start()
			k, d, _, err := grow(opts)
			rt.stop(1)
			if err != nil {
				return nil, err
			}
			plain = append(plain, d)
			lat[k] = append(lat[k], d)
		}
		ref.sample()
		rt.metrics(o.metrics)
		o.metrics["unscaled.write_p50_s"] = meanOfMedians(lat)
		o.metrics["machine.ref_s"] = median(ref.samples)
		st := &boat.IOStats{}
		tr := boat.NewTracer(st)
		reg := boat.NewMetricsRegistry()
		topts := opts
		topts.Trace, topts.Stats, topts.Metrics = tr, st, reg
		var bs boat.GrowStats
		for i := 0; i < ops; i++ {
			_, d, b, err := grow(topts)
			if err != nil {
				return nil, err
			}
			traced = append(traced, d)
			bs.TuplesSeen += b.TuplesSeen
			bs.StuckTuples += b.StuckTuples
			bs.CoarseNodes += b.CoarseNodes
			bs.Disagreements += b.Disagreements
		}
		opRoots{roots: tr.Roots(), size: n}.spanMetrics(o.metrics)
		o.metrics["obs.trace_overhead"] = median(seconds(traced))/median(seconds(plain)) - 1
		o.metrics["core.stuck_frac"] = float64(bs.StuckTuples) / float64(bs.TuplesSeen)
		o.metrics["bootstrap.agreement"] = float64(bs.CoarseNodes) / float64(bs.CoarseNodes+bs.Disagreements)
		o.metrics["data.blocks_skipped"] = float64(reg.Counter("scan.blocks_skipped").Value()) / float64(ops)
		if err := writeTrace(p, tr); err != nil {
			return nil, err
		}
		if o.metrics["data.scan_s"], err = scanTime(n, inputs[0]); err != nil {
			return nil, err
		}
	}

	serve := make([]predictFn, s.inputs)
	for k, ts := range trees {
		pr, err := boat.NewPredictor(ts[len(ts)-1], boat.PredictorOptions{})
		if err != nil {
			return nil, err
		}
		serve[k] = pr.Predict
	}
	rd := &reader{serve: serve, batches: batches}
	scale := rd.runFor(p.seconds * (1 - writeShare))
	rd.metrics(o, scale)
	o.metrics["peak_rss_mb"] = peakRSSMB()

	// Exactness gate: every tree equals the reference on the same tuples.
	var refS float64
	for k, src := range inputs {
		tuples, err := readAll(src)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ref := boat.GrowInMemory(src.Schema(), tuples, boat.InMemoryOptions{
			Method: opts.Method, StopThreshold: opts.StopThreshold, StopAtThreshold: true,
		})
		refS += time.Since(start).Seconds()
		for _, t := range trees[k] {
			if !t.Equal(ref) {
				o.failed++
			}
		}
		if err := checkLabels(o, serve[k], batches, ref); err != nil {
			return nil, err
		}
		if p.traced && k == 0 {
			if err := serveLayers(o, ref, holdoutTuples); err != nil {
				return nil, err
			}
		}
	}
	o.metrics["inmem.reference_s"] = refS / float64(s.inputs)
	return o, nil
}

// writeInput generates an input, writes it to path and opens it.
func writeInput(path string, clustered bool, n, seed int64) (boat.Source, error) {
	src, err := boat.Synthetic(f1, n, seed)
	if err != nil {
		return nil, err
	}
	if !clustered {
		if _, err := boat.WriteFile(path, src, boat.FormatCompact); err != nil {
			return nil, fmt.Errorf("writing input: %w", err)
		}
		return boat.Open(path)
	}
	tuples, err := readAll(src)
	if err != nil {
		return nil, err
	}
	age := -1
	for i, a := range src.Schema().Attributes {
		if a.Name == "age" {
			age = i
		}
	}
	// Ages are a few dozen integers: bucket the tuples instead of sorting.
	byAge := map[float64][]boat.Tuple{}
	for _, t := range tuples {
		byAge[t.Values[age]] = append(byAge[t.Values[age]], t)
	}
	ages := make([]float64, 0, len(byAge))
	for a := range byAge {
		ages = append(ages, a)
	}
	sort.Float64s(ages)
	tuples = tuples[:0]
	for _, a := range ages {
		tuples = append(tuples, byAge[a]...)
	}
	if _, err := boat.WriteColumnarFile(path, boat.NewMemSource(src.Schema(), tuples), 0); err != nil {
		return nil, fmt.Errorf("writing input: %w", err)
	}
	return boat.Open(path)
}

// ---------------------------------------------------------------------------
// Streaming maintenance

// streamSpec is a sliding-window maintenance workload over several
// independent models, each with a base, six pre-generated chunks and a
// window of three live ones. A round on a model inserts its newest chunk
// and deletes its oldest; rounds go to the models in turn. Sizes are at
// scale 1.
type streamSpec struct {
	base, chunk, sample, subsample, threshold int64
	models                                    int
	// serve runs the updates in an open loop, one due every period, beside
	// a closed-loop reader; otherwise they run back to back and a quiescent
	// read phase follows.
	serve  bool
	period time.Duration
}

const (
	window = 3
	slots  = 6
	// checkEvery rounds of every model, stream-window checks each window
	// multiset, outside the timed ops.
	checkEvery = 5
)

var (
	streamWindow = streamSpec{base: 100_000, chunk: 10_000, sample: 2_000, subsample: 500, threshold: 15_000, models: 4}
	streamServe  = streamSpec{base: 100_000, chunk: 10_000, sample: 2_000, subsample: 500, threshold: 15_000, models: 4,
		serve: true, period: 625 * time.Millisecond}
)

// model is one maintained model and its inputs.
type model struct {
	base       boat.Source
	baseTuples []boat.Tuple // read on the first check
	chunks     [slots][]boat.Tuple
	chunkSrc   [slots]boat.Source
	m          *boat.Model
	mp         *predict.Maintained
	ops        int // update ops applied to m
	checked    int // ops at the last exactness check
}

// stream is one streaming run.
type stream struct {
	p       params
	s       streamSpec
	o       *outcome
	opts    boat.Options
	models  []*model
	batches []boat.Source
	holdout []boat.Tuple // every tuple of batches
	ops     int          // update ops since the last set-up
}

func runStream(p params, s streamSpec) (*outcome, error) {
	r := &stream{p: p, s: s, o: newOutcome()}
	r.opts = boat.Options{
		Method:          boat.Gini(),
		SampleSize:      int(p.n(s.sample)),
		SubsampleSize:   int(p.n(s.subsample)),
		BootstrapTrees:  20,
		StopThreshold:   p.n(s.threshold),
		StopAtThreshold: true,
		Seed:            p.seed,
		TempDir:         p.dir,
	}
	defer r.close()
	var sref refClock
	sref.sample()
	setups, err := r.setup(r.opts, &sref)
	if err != nil {
		return nil, err
	}
	r.o.setSetup(setups, &sref)
	if r.batches, r.holdout, err = holdout(p); err != nil {
		return nil, err
	}
	// The closed loop stops on time, so the trees it leaves behind differ
	// from run to run of one seed. Its quiescent reads therefore come
	// first, on the trees as set up.
	if !s.serve {
		r.quiescentReads()
	}
	if p.traced {
		return r.o, r.tracedPass()
	}

	res, err := r.phase(0, p.seconds*writeShare, true)
	if err != nil {
		return nil, err
	}
	scale := res.ref.scale()
	r.o.metrics["write_p50_scaled_s"] = meanOfMedians(res.lat) * scale
	r.o.metrics["write_tuples_per_scaled_s"] = float64(p.n(s.chunk)) * float64(len(res.service)) / sum(res.service) / scale
	r.o.metrics["peak_rss_mb"] = peakRSSMB()
	_, err = r.checkAll(true)
	return r.o, err
}

// setup generates every model's inputs and builds it with the window
// filled, replacing earlier models. It returns each model's set-up time,
// sampling ref (when not nil) between them.
func (r *stream) setup(opts boat.Options, ref *refClock) ([]float64, error) {
	r.close()
	r.models, r.ops = nil, 0
	var setups []float64
	for k := 0; k < r.s.models; k++ {
		start := time.Now()
		md, err := r.newModel(k, opts)
		if md != nil {
			r.models = append(r.models, md)
		}
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		if ref != nil {
			ref.tick()
		}
	}
	return setups, nil
}

func (r *stream) newModel(k int, opts boat.Options) (*model, error) {
	md := &model{}
	var err error
	if md.base, err = boat.Synthetic(f1, r.p.n(r.s.base), r.p.inputSeed(k, 0)); err != nil {
		return nil, err
	}
	for i := range md.chunks {
		src, err := boat.Synthetic(f1, r.p.n(r.s.chunk), r.p.inputSeed(k, 1+i))
		if err != nil {
			return nil, err
		}
		if md.chunks[i], err = readAll(src); err != nil {
			return nil, err
		}
		md.chunkSrc[i] = boat.NewMemSource(src.Schema(), md.chunks[i])
	}
	if md.m, err = boat.Grow(md.base, opts); err != nil {
		return nil, fmt.Errorf("grow base: %w", err)
	}
	md.mp = predict.NewMaintained(md.m, predict.Config{})
	for i := 0; i < window; i++ {
		if _, err := md.m.Insert(md.chunkSrc[i]); err != nil {
			return md, fmt.Errorf("filling the window: %w", err)
		}
	}
	return md, nil
}

func (r *stream) close() {
	for _, md := range r.models {
		md.m.Close()
	}
}

// op applies the next update op and reports which model it went to. Ops
// go to the models a round (an insert of the model's newest chunk, then a
// delete of its oldest) at a time.
func (r *stream) op() (int, boat.UpdateStats, error) {
	k := (r.ops / 2) % len(r.models)
	md := r.models[k]
	round := md.ops / 2
	var u boat.UpdateStats
	var err error
	if md.ops%2 == 0 {
		u, err = md.m.Insert(md.chunkSrc[(window+round)%slots])
	} else {
		u, err = md.m.Delete(md.chunkSrc[round%slots])
	}
	md.ops++
	r.ops++
	r.o.attempted++
	return k, u, err
}

// roundOps is the length of one round over every model.
func (r *stream) roundOps() int { return 2 * len(r.models) }

// phaseResult is one write phase's measurements.
type phaseResult struct {
	// lat holds each model's op latencies (from the due time in the open
	// loop); service the op service times.
	lat     [][]time.Duration
	service []time.Duration
	upd     []boat.UpdateStats
	ref     refClock
}

func (res *phaseResult) add(model int, lat, service time.Duration, u boat.UpdateStats) {
	for len(res.lat) <= model {
		res.lat = append(res.lat, nil)
	}
	res.lat[model] = append(res.lat[model], lat)
	res.service = append(res.service, service)
	res.upd = append(res.upd, u)
}

// phase runs at least minOps update ops and at least secs seconds of ops,
// ending on an even op count, so every model holds whole rounds. It
// samples the reference kernel between ops. The open loop runs a reader
// beside the ops; checks adds the closed loop's every-checkEvery-rounds
// exactness check.
func (r *stream) phase(minOps int, secs float64, checks bool) (*phaseResult, error) {
	res := &phaseResult{}
	res.ref.sample()
	if r.s.serve {
		if err := r.openLoop(res, minOps, secs); err != nil {
			return nil, err
		}
		return res, nil
	}
	var paused time.Duration
	start := time.Now()
	for r.ops%2 != 0 || len(res.service) < max(minOps, minWrites) ||
		(time.Since(start)-paused).Seconds() < secs {
		t0 := time.Now()
		k, u, err := r.op()
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		res.add(k, d, d, u)
		res.ref.tick()
		if checks && r.ops%(checkEvery*r.roundOps()) == 0 {
			t0 := time.Now()
			if _, err := r.checkAll(false); err != nil {
				return nil, err
			}
			paused += time.Since(t0)
		}
	}
	res.ref.sample()
	return res, nil
}

// openLoop schedules one op every period from the phase start and times
// each from its due time, beside one closed-loop reader. The reference
// kernel runs only in idle time before a due op that can fit it, with the
// reader paused.
func (r *stream) openLoop(res *phaseResult, minOps int, secs float64) error {
	period := time.Duration(float64(r.s.period) * r.p.scale)
	n := max(minOps, int(secs/period.Seconds()))
	n += n % 2
	rd := r.reader()
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.run(stop.Load)
	}()
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	var lateMax time.Duration
	start := time.Now()
	for k := 0; k < n; k++ {
		due := start.Add(time.Duration(k) * period)
		if time.Until(due) > 2*res.ref.cost && time.Since(res.ref.last) >= refEvery {
			rd.mu.Lock()
			res.ref.sample()
			rd.mu.Unlock()
		}
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		began := time.Now()
		lateMax = max(lateMax, began.Sub(due))
		m, u, err := r.op()
		if err != nil {
			return err
		}
		res.add(m, time.Since(due), time.Since(began), u)
	}
	stop.Store(true)
	wg.Wait()
	res.ref.sample()
	rd.metrics(r.o, res.ref.scale())
	r.o.metrics["loadgen.late_max_s"] = lateMax.Seconds()
	return nil
}

func (r *stream) reader() *reader {
	rd := &reader{batches: r.batches}
	for _, md := range r.models {
		rd.serve = append(rd.serve, maintained(md.mp))
	}
	return rd
}

func (r *stream) quiescentReads() {
	rd := r.reader()
	scale := rd.runFor(r.p.seconds * (1 - writeShare))
	rd.metrics(r.o, scale)
}

// tracedPass runs tracedUpdates untraced update ops on the set-up models,
// then sets them up again with tracing on and runs as many traced.
func (r *stream) tracedPass() error {
	var rt runtimeDelta
	rt.start()
	plain, err := r.phase(tracedUpdates, 0, false)
	if err != nil {
		return err
	}
	rt.stop(len(plain.service))
	rt.metrics(r.o.metrics)
	r.o.metrics["unscaled.write_p50_s"] = meanOfMedians(plain.lat)
	r.o.metrics["machine.ref_s"] = median(plain.ref.samples)
	if _, err := r.checkAll(false); err != nil {
		return err
	}

	st := &boat.IOStats{}
	tr := boat.NewTracer(st)
	topts := r.opts
	topts.Trace, topts.Stats, topts.Metrics = tr, st, boat.NewMetricsRegistry()
	if _, err := r.setup(topts, nil); err != nil {
		return err
	}
	setupRoots := len(tr.Roots())
	traced, err := r.phase(tracedUpdates, 0, false)
	if err != nil {
		return err
	}
	size := r.p.n(r.s.base) + window*r.p.n(r.s.chunk)
	opRoots{roots: tr.Roots()[setupRoots:], upd: traced.upd, size: size}.spanMetrics(r.o.metrics)
	r.o.metrics["obs.trace_overhead"] = median(seconds(traced.service))/median(seconds(plain.service)) - 1
	if err := writeTrace(r.p, tr); err != nil {
		return err
	}
	ref, err := r.checkAll(true)
	if err != nil {
		return err
	}
	var scan float64
	md := r.models[0]
	for _, src := range md.chunkSrc {
		s, err := scanTime(r.p.n(r.s.chunk), src)
		if err != nil {
			return err
		}
		scan += s
	}
	r.o.metrics["data.scan_s"] = scan / slots
	return serveLayers(r.o, ref, r.holdout)
}

// checkAll compares every maintained tree with the reference built in
// memory on its current multiset (base plus live window); labels also
// checks the served predictions. On a mismatch the model's ops since its
// previous check count as failed. It returns the first model's reference.
func (r *stream) checkAll(labels bool) (*boat.DecisionTree, error) {
	var first *boat.DecisionTree
	var refS float64
	for _, md := range r.models {
		if md.baseTuples == nil {
			var err error
			if md.baseTuples, err = readAll(md.base); err != nil {
				return nil, err
			}
		}
		round := md.ops / 2
		tuples := append([]boat.Tuple(nil), md.baseTuples...)
		for i := 0; i < window; i++ {
			tuples = append(tuples, md.chunks[(round+i)%slots]...)
		}
		start := time.Now()
		ref := boat.GrowInMemory(md.base.Schema(), tuples, boat.InMemoryOptions{
			Method: r.opts.Method, StopThreshold: r.opts.StopThreshold, StopAtThreshold: true,
		})
		refS += time.Since(start).Seconds()
		if !md.m.Tree().Equal(ref) {
			r.o.failed += int64(max(md.ops-md.checked, 1))
		}
		md.checked = md.ops
		if labels {
			if err := checkLabels(r.o, maintained(md.mp), r.batches, ref); err != nil {
				return nil, err
			}
		}
		if first == nil {
			first = ref
		}
	}
	r.o.metrics["inmem.reference_s"] = refS / float64(len(r.models))
	return first, nil
}

// ---------------------------------------------------------------------------
// Reads

// holdout returns the read load: holdoutBatches labeled batches of
// batchRows tuples, plus all their tuples.
func holdout(p params) ([]boat.Source, []boat.Tuple, error) {
	rows := p.n(batchRows)
	src, err := boat.Synthetic(f1, holdoutBatches*rows, p.inputSeed(999, 0))
	if err != nil {
		return nil, nil, err
	}
	tuples, err := readAll(src)
	if err != nil {
		return nil, nil, err
	}
	batches := make([]boat.Source, holdoutBatches)
	for i := range batches {
		batches[i] = boat.NewMemSource(src.Schema(), tuples[int64(i)*rows:int64(i+1)*rows])
	}
	return batches, tuples, nil
}

// predictFn serves one read: a Predictor's, or a Maintained model's.
type predictFn func(boat.Source) (*boat.Prediction, error)

func maintained(mp *predict.Maintained) predictFn {
	return func(src boat.Source) (*boat.Prediction, error) {
		res, _, err := mp.Predict(src)
		return res, err
	}
}

// reader is one closed-loop client cycling over the models and the
// holdout batches.
type reader struct {
	serve   []predictFn
	batches []boat.Source
	lat     [][]time.Duration // per model
	failed  int64
	// mu is held through each read; holding it pauses the reader.
	mu sync.Mutex
}

func (rd *reader) run(stop func() bool) {
	rd.lat = make([][]time.Duration, len(rd.serve))
	for i := 0; !stop(); i++ {
		k := i % len(rd.serve)
		rd.mu.Lock()
		start := time.Now()
		_, err := rd.serve[k](rd.batches[i%len(rd.batches)])
		rd.lat[k] = append(rd.lat[k], time.Since(start))
		rd.mu.Unlock()
		if err != nil {
			rd.failed++
		}
	}
}

// runFor reads for secs seconds with no writer, sampling the reference
// kernel between reads, and returns the phase's timing scale. It first
// collects the write phase's garbage, so the reads do not pay for it.
func (rd *reader) runFor(secs float64) float64 {
	runtime.GC()
	var ref refClock
	ref.sample()
	end := time.Now().Add(time.Duration(secs * float64(time.Second)))
	rd.run(func() bool {
		ref.tick()
		return time.Now().After(end)
	})
	ref.sample()
	return ref.scale()
}

// metrics records the reads; scale converts their timings to scaled ones.
func (rd *reader) metrics(o *outcome, scale float64) {
	all := pooled(rd.lat)
	o.attempted += int64(len(all))
	o.failed += rd.failed
	o.metrics["unscaled.read_p50_us"] = meanOfMedians(rd.lat) * 1e6
	o.metrics["read_p50_scaled_us"] = o.metrics["unscaled.read_p50_us"] * scale
	o.metrics["predict.p99_us"] = percentile(all, 0.99) * 1e6
	if len(all) >= 100_000 {
		o.metrics["predict.p9999_us"] = percentile(all, 0.9999) * 1e6
	}
	var stalls int
	for _, d := range all {
		if d > stallThreshold {
			stalls++
		}
	}
	o.metrics["predict.stalls"] = float64(stalls)
}

// checkLabels serves every batch once more and compares the labels with
// the reference tree's; each mismatching request counts as failed.
func checkLabels(o *outcome, serve predictFn, batches []boat.Source, ref *boat.DecisionTree) error {
	for _, b := range batches {
		res, err := serve(b)
		o.attempted++
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		tuples, err := readAll(b)
		if err != nil {
			return err
		}
		for i, t := range tuples {
			if res.Labels[i] != ref.Classify(t) {
				o.failed++
				break
			}
		}
	}
	return nil
}

// serveLayers times the serving layers from outside on a final tree:
// compilation, and the batch predictor with no updates.
func serveLayers(o *outcome, t *boat.DecisionTree, holdoutTuples []boat.Tuple) error {
	var compile []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		if _, err := boat.CompileTree(t); err != nil {
			return fmt.Errorf("compile: %w", err)
		}
		compile = append(compile, time.Since(start).Seconds())
	}
	o.metrics["tree.compile_s"] = median(compile)
	pr, err := boat.NewPredictor(t, boat.PredictorOptions{})
	if err != nil {
		return err
	}
	all := boat.NewMemSource(t.Schema, holdoutTuples)
	var rate []float64
	for i := 0; i < 5; i++ {
		res, err := pr.Predict(all)
		if err != nil {
			return fmt.Errorf("predict: %w", err)
		}
		rate = append(rate, res.TuplesPerSec)
	}
	o.metrics["predict.kernel_tuples_per_s"] = median(rate)
	return nil
}

// ---------------------------------------------------------------------------
// Helpers

// scanTime times one external chunked pass over src, checking its size.
func scanTime(n int64, src boat.Source) (float64, error) {
	var seen int64
	start := time.Now()
	err := data.ForEachChunk(src, chunkRows, func(c *data.Chunk) error {
		seen += int64(c.Len())
		return nil
	})
	d := time.Since(start).Seconds()
	if err != nil {
		return 0, fmt.Errorf("scan: %w", err)
	}
	if seen != n {
		return 0, fmt.Errorf("scan: read %d tuples, want %d", seen, n)
	}
	return d, nil
}

// readAll returns copies of every tuple of src. The copies of one batch
// share one backing array.
func readAll(src boat.Source) ([]boat.Tuple, error) {
	sc, err := src.Scan()
	if err != nil {
		return nil, err
	}
	defer sc.Close()
	width := len(src.Schema().Attributes)
	var out []boat.Tuple
	for {
		batch, err := sc.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("reading input: %w", err)
		}
		slab := make([]float64, 0, len(batch)*width)
		for _, t := range batch {
			slab = append(slab, t.Values...)
			out = append(out, boat.Tuple{Values: slab[len(slab)-width : len(slab) : len(slab)], Class: t.Class})
		}
	}
}

// writeTrace writes the traced pass's spans as a Chrome trace.
func writeTrace(p params, tr *boat.Tracer) error {
	if p.traceOut == "" {
		return nil
	}
	if err := os.MkdirAll(p.traceOut, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(p.traceOut, fmt.Sprintf("%s-seed%d.trace.json", p.workload, p.seed)))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func sum(ds []time.Duration) float64 {
	var s float64
	for _, d := range ds {
		s += d.Seconds()
	}
	return s
}
