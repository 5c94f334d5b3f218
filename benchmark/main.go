// Command benchmark is the repository benchmark. It drives BOAT only
// through its public entry points over four workloads (two file-backed
// builds and two streaming-maintenance loops). It checks every tree
// against the in-memory reference builder and reports the end-to-end and
// per-layer metrics that BENCHMARK.json names. See README.md.
//
// Build and run it from the repository root with benchmark/run.sh:
//
//	bash benchmark/run.sh --workload grow-fig4 --seed 1 --seconds 15 --trace 0
//	bash benchmark/run.sh --runs 10 --out new.json
//	bash benchmark/run.sh -compare benchmark/baseline.json new.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run; empty runs every workload, each in its own process")
		seed     = flag.Int64("seed", 1, "input seed (1 is the baseline seed, 2 the held-out seed)")
		secs     = flag.Float64("seconds", 15, "measured seconds per run")
		trace    = flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics; 0 reports end-to-end metrics")
		workdir  = flag.String("workdir", ".bench_build", "directory for scratch input and spill files")
		traceOut = flag.String("traceout", "benchmark/out", "directory for the traced pass's Chrome traces")
		runs     = flag.Int("runs", 1, "every-workload mode: seeds 1..runs per workload")
		sets     = flag.Int("sets", 1, "every-workload mode: run the seed list this many times")
		out      = flag.String("out", "", "every-workload mode: write the run set as JSON to this file")
		rev      = flag.String("rev", "", "every-workload mode: source revision to record in the run set")
		compare  = flag.String("compare", "", "compare the run set in this file (base) with the one named by the argument (new)")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		os.Exit(2)
	}
	switch {
	case *compare != "":
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare base.json new.json")
			os.Exit(2)
		}
		regressed, err := compareRunSets(os.Stdout, *spec, *compare, flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		if regressed {
			os.Exit(1)
		}
	case *name == "":
		a := allRuns{runs: *runs, sets: *sets, seconds: *secs,
			workdir: *workdir, traceOut: *traceOut, out: *out, rev: *rev}
		if err := a.run(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	default:
		p := params{workload: *name, seed: *seed, seconds: *secs, traced: *trace == 1,
			scale: 1, traceOut: *traceOut}
		res, err := runOne(p, *workdir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", *name, err)
			os.Exit(1)
		}
		printResult(os.Stderr, *name, res)
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			os.Exit(1)
		}
		if !res.Correct {
			os.Exit(1)
		}
	}
}

// result is one run's report, the JSON object printed as the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in a fresh scratch directory under workdir and
// attaches units: the end-to-end metrics untraced, the per-layer metrics
// traced. A per-layer metric the workload does not exercise reads 0.
func runOne(p params, workdir string) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == p.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload (have %s)", strings.Join(workloadNames(), ", "))
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p.dir = dir
	o, err := w.run(p)
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if p.traced {
		defs = perLayer
	}
	res := &result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]measurement{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok && !p.traced {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.name, v)
		}
		res.Metrics[d.name] = measurement{Value: v, Unit: d.unit}
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func printResult(w io.Writer, name string, res *result) {
	rate := 0.0
	if res.Attempted > 0 {
		rate = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Fprintf(w, "%s: correct=%v attempted=%d failed=%d error_rate=%g\n",
		name, res.Correct, res.Attempted, res.Failed, rate)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; ok {
				fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Every-workload mode

// runSet is a set of runs of every workload, as written by -out and read
// by -compare. benchmark/baseline.json is one.
type runSet struct {
	Provenance provenance                     `json:"provenance"`
	Runs       []runRecord                    `json:"runs"`
	Summary    map[string]map[string]*summary `json:"summary"`
}

type provenance struct {
	Rev        string  `json:"rev"`
	Go         string  `json:"go"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seeds      []int64 `json:"seeds"`
	Sets       int     `json:"sets"`
	Seconds    float64 `json:"seconds"`
	Date       string  `json:"date"`
}

type runRecord struct {
	Workload string `json:"workload"`
	Set      int    `json:"set"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	result
}

// summary describes one metric of one workload over a run set: median
// and quartiles over the untraced runs (over the traced runs for a
// per-layer metric), and each set's own median.
type summary struct {
	Unit       string    `json:"unit"`
	N          int       `json:"n"`
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	Spread     float64   `json:"spread"`
	SetMedians []float64 `json:"set_medians"`
}

type allRuns struct {
	runs, sets        int
	seconds           float64
	workdir, traceOut string
	out, rev          string
}

// run executes, for each set, every workload on seeds 1..runs untraced
// and then once traced on seed 1, each run in its own process.
func (a allRuns) run(w io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	rs := runSet{Provenance: provenance{
		Rev: a.rev, Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Sets: a.sets, Seconds: a.seconds, Date: time.Now().UTC().Format(time.RFC3339),
	}}
	for s := int64(1); s <= int64(a.runs); s++ {
		rs.Provenance.Seeds = append(rs.Provenance.Seeds, s)
	}
	var failures []string
	for set := 1; set <= a.sets; set++ {
		for _, wl := range workloads {
			for _, rec := range a.plan(wl.name, set) {
				start := time.Now()
				res, err := a.child(exe, rec)
				if err != nil {
					failures = append(failures, fmt.Sprintf("%s seed %d trace %d: %v", rec.Workload, rec.Seed, rec.Trace, err))
					continue
				}
				rec.result = *res
				rs.Runs = append(rs.Runs, rec)
				fmt.Fprintf(os.Stderr, "set %d %s seed %d trace %d: %.1fs correct=%v\n",
					set, rec.Workload, rec.Seed, rec.Trace, time.Since(start).Seconds(), res.Correct)
				if !res.Correct {
					failures = append(failures, fmt.Sprintf("%s seed %d trace %d: %d of %d ops failed",
						rec.Workload, rec.Seed, rec.Trace, res.Failed, res.Attempted))
				}
			}
		}
	}
	rs.summarize()
	rs.print(w)
	if a.out != "" {
		b, err := json.MarshalIndent(rs, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(a.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d runs failed:\n  %s", len(failures), strings.Join(failures, "\n  "))
	}
	return nil
}

func (a allRuns) plan(name string, set int) []runRecord {
	var recs []runRecord
	for s := int64(1); s <= int64(a.runs); s++ {
		recs = append(recs, runRecord{Workload: name, Set: set, Seed: s})
	}
	return append(recs, runRecord{Workload: name, Set: set, Seed: 1, Trace: 1})
}

// child runs one workload in its own process and parses the result line.
func (a allRuns) child(exe string, rec runRecord) (*result, error) {
	cmd := exec.Command(exe, "-workload", rec.Workload, "-seed", strconv.FormatInt(rec.Seed, 10),
		"-seconds", strconv.FormatFloat(a.seconds, 'g', -1, 64), "-trace", strconv.Itoa(rec.Trace),
		"-workdir", a.workdir, "-traceout", a.traceOut)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return nil, fmt.Errorf("%v\n%s", err, stderr.String())
	}
	return &res, nil
}

func (rs *runSet) summarize() {
	rs.Summary = map[string]map[string]*summary{}
	for _, wl := range workloads {
		m := map[string]*summary{}
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				var all []float64
				bySet := map[int][]float64{}
				for _, r := range rs.Runs {
					if r.Workload != wl.name || r.Trace != trace {
						continue
					}
					if v, ok := r.Metrics[d.name]; ok {
						all = append(all, v.Value)
						bySet[r.Set] = append(bySet[r.Set], v.Value)
					}
				}
				if len(all) == 0 {
					continue
				}
				s := &summary{Unit: d.unit, N: len(all), Median: median(all), Spread: spread(all)}
				s.Q1, _, s.Q3 = quartiles(all)
				for set := 1; set <= rs.Provenance.Sets; set++ {
					s.SetMedians = append(s.SetMedians, median(bySet[set]))
				}
				m[d.name] = s
			}
		}
		rs.Summary[wl.name] = m
	}
}

func (rs *runSet) print(w io.Writer) {
	for _, wl := range workloads {
		sm := rs.Summary[wl.name]
		if len(sm) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s\n", wl.name)
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if s, ok := sm[d.name]; ok {
					fmt.Fprintf(w, "  %-30s %14.6g %-9s q1 %-12.6g q3 %-12.6g spread %.3f n %d\n",
						d.name, s.Median, d.unit, s.Q1, s.Q3, s.Spread, s.N)
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// -compare

// benchSpec is the part of BENCHMARK.json the harness reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareRunSets prints, per workload and end-to-end metric, both run
// sets' medians and quartiles, the delta and a verdict. A metric whose
// spread (interquartile range over median, in either set) exceeds its
// bound is unresolved, unless every new run beats every base run;
// otherwise it regressed when its median is worse by more than its
// bound. It reports whether anything regressed.
func compareRunSets(w io.Writer, specPath, basePath, newPath string) (bool, error) {
	var spec benchSpec
	var base, cur runSet
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {basePath, &base}, {newPath, &cur}} {
		if err := readJSON(f.path, f.v); err != nil {
			return false, err
		}
	}
	values := func(rs *runSet, wl, metric string) []float64 {
		var out []float64
		for _, r := range rs.Runs {
			if r.Workload == wl && r.Trace == 0 {
				if v, ok := r.Metrics[metric]; ok {
					out = append(out, v.Value)
				}
			}
		}
		return out
	}
	regressed := false
	fmt.Fprintf(w, "%-14s %-20s %-9s %12s %25s %12s %25s %8s  %s\n",
		"workload", "metric", "unit", "base", "[q1, q3]", "new", "[q1, q3]", "delta", "verdict")
	for _, wl := range workloadNames() {
		for _, m := range spec.EndToEnd {
			b, n := values(&base, wl, m.Name), values(&cur, wl, m.Name)
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-14s %-20s missing from a run set\n", wl, m.Name)
				continue
			}
			bq1, bm, bq3 := quartiles(b)
			nq1, nm, nq3 := quartiles(n)
			delta := (nm - bm) / bm
			worse, better := delta, func(x, y float64) bool { return x < y }
			if m.Better == "higher" {
				worse, better = -delta, func(x, y float64) bool { return x > y }
			}
			allBetter := true
			for _, x := range n {
				for _, y := range b {
					allBetter = allBetter && better(x, y)
				}
			}
			verdict := "ok"
			switch {
			case max(spread(b), spread(n)) > m.Bound && !allBetter:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-14s %-20s %-9s %12.6g [%11.6g, %11.6g] %12.6g [%11.6g, %11.6g] %+7.1f%%  %s\n",
				wl, m.Name, m.Unit, bm, bq1, bq3, nm, nq1, nq3, 100*delta, verdict)
		}
	}
	for _, r := range cur.Runs {
		if !r.Correct {
			fmt.Fprintf(w, "new run %s seed %d trace %d: %d of %d ops failed\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
			regressed = true
		}
	}
	return regressed, nil
}
