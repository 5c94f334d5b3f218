package main

import (
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestWorkloadsTiny runs every workload at a tiny scale, untraced and
// traced. Every named metric must be present with its unit and finite,
// every end-to-end metric nonzero, every tree exact, and the spans must
// cover at least 95% of each write op.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			p := params{workload: w.name, seed: 1, seconds: 0.3, traced: traced, scale: 0.02, traceOut: t.TempDir()}
			res, err := runOne(p, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v, %d of %d ops failed", w.name, traced, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s missing", w.name, traced, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s: %s unit %q, want %q", w.name, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s: %s = %v", w.name, d.name, m.Value)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, d.name, m.Value)
				}
			}
			if traced {
				if c := res.Metrics["obs.trace_coverage"].Value; c < 0.95 {
					t.Errorf("%s: obs.trace_coverage = %v, want >= 0.95", w.name, c)
				}
				traces, _ := filepath.Glob(filepath.Join(p.traceOut, w.name+"-seed1.trace.json"))
				if len(traces) != 1 {
					t.Errorf("%s: no Chrome trace written", w.name)
				}
			}
		}
	}
}

// TestSpecMatchesHarness checks that BENCHMARK.json names exactly the
// harness's workloads and metrics, with the same units and directions,
// and that its bounds are within the allowed range with setup_s's the
// largest.
func TestSpecMatchesHarness(t *testing.T) {
	var spec benchSpec
	if err := readJSON("../BENCHMARK.json", &spec); err != nil {
		t.Fatal(err)
	}
	if got, want := len(spec.Workloads), len(workloads); got != want {
		t.Fatalf("%d workloads in BENCHMARK.json, harness has %d", got, want)
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if got, want := len(spec.EndToEnd), len(endToEnd); got != want {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, harness has %d", got, want)
	}
	var setupBound, maxOther float64
	for i, m := range spec.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end-to-end %d: BENCHMARK.json has %s/%s/%s, harness %s/%s/%s",
				i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		} else {
			maxOther = max(maxOther, m.Bound)
		}
	}
	if setupBound < maxOther {
		t.Errorf("setup_s bound %v is below another metric's %v", setupBound, maxOther)
	}
	if got, want := len(spec.PerLayer), len(perLayer); got != want {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, harness has %d", got, want)
	}
	for i, m := range spec.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %s/%s/%s, harness %s/%s/%s",
				i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// TestCompareVerdicts checks the three verdicts of -compare against a
// 10% bound on a lower-is-better metric.
func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", `{"end_to_end": [{"name": "write_p50_s", "unit": "s", "better": "lower", "bound": 0.1}]}`)
	set := func(name string, values ...float64) string {
		body := `{"runs": [`
		for i, v := range values {
			if i > 0 {
				body += ","
			}
			body += `{"workload": "grow-fig4", "trace": 0, "correct": true, "metrics": {"write_p50_s": {"value": ` +
				strconv.FormatFloat(v, 'g', -1, 64) + `, "unit": "s"}}}`
		}
		return write(name, body+`]}`)
	}
	base := set("base.json", 1.00, 1.01, 0.99, 1.00, 1.02)
	for _, c := range []struct {
		name    string
		values  []float64
		verdict string
	}{
		{"same", []float64{1.01, 1.00, 0.99, 1.02, 1.00}, "ok"},
		{"slower", []float64{1.20, 1.21, 1.19, 1.22, 1.20}, "regressed"},
		{"noisy", []float64{0.8, 1.3, 1.0, 1.5, 0.7}, "unresolved"},
		{"noisy-faster", []float64{0.5, 0.9, 0.6, 0.95, 0.55}, "ok"},
	} {
		var out strings.Builder
		regressed, err := compareRunSets(&out, spec, base, set(c.name+".json", c.values...))
		if err != nil {
			t.Fatal(err)
		}
		line := ""
		for _, l := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(l, "grow-fig4") {
				line = l
			}
		}
		if !strings.HasSuffix(line, c.verdict) || regressed != (c.verdict == "regressed") {
			t.Errorf("%s: got %q (regressed=%v), want verdict %s", c.name, line, regressed, c.verdict)
		}
	}
}
