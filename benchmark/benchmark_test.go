package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedianPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i) // 200..1, unsorted on purpose
	}
	if got := percentile(xs, 95); got != 190 {
		t.Errorf("p95 of 1..200 = %v, want 190", got)
	}
	if got := samplesBeyond(200, 95); got != 10 {
		t.Errorf("samples beyond p95 of 200 = %d, want 10", got)
	}
	// With three samples the nearest-rank p95 is the maximum.
	if got := percentile([]float64{6.4, 6.5, 6.45}, 95); got != 6.5 {
		t.Errorf("p95 of 3 = %v, want the max", got)
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("p50 of 1 = %v", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4):
// for 1..10 the quartiles are 2.75 and 8.25, the median 5.5.
func TestQuartileSpread(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if got, want := quartileSpread([]float64{1, 2}), (2.25-0.75)/1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of two = %v, want %v", got, want)
	}
}

func TestBoundArithmetic(t *testing.T) {
	if got := worsening(100, 104, "lower"); math.Abs(got-0.04) > 1e-12 {
		t.Errorf("lower-is-better worsening = %v", got)
	}
	if got := worsening(100, 104, "higher"); math.Abs(got+0.04) > 1e-12 {
		t.Errorf("higher-is-better worsening = %v", got)
	}
	cases := []struct {
		base, value, spread, bound float64
		better, want               string
	}{
		{100, 104, 0.01, 0.05, "lower", verdictOK},
		{100, 106, 0.01, 0.05, "lower", verdictRegressed},
		{100, 94, 0.01, 0.05, "higher", verdictRegressed},
		{100, 106, 0.01, 0.05, "higher", verdictOK},
		{100, 101, 0.08, 0.05, "lower", verdictUnresolved},
	}
	for _, c := range cases {
		if _, got := judge(c.base, c.value, c.spread, c.bound, c.better); got != c.want {
			t.Errorf("judge(%v -> %v, spread %v, bound %v, %s) = %s, want %s", c.base, c.value, c.spread, c.bound, c.better, got, c.want)
		}
	}
	m := summarize([]float64{9, 10, 11}, "ms", kindMeasured)
	if m.Value != 10 || m.N != 3 || m.Min != 9 || m.Max != 11 || math.Abs(m.Spread-0.2) > 1e-12 {
		t.Errorf("summarize = %+v", m)
	}
	// Even samples {1, 3, 5} and odd samples {2, 4} have medians 3 and 3.
	if got := halvesSpread([]float64{1, 2, 3, 4, 5}, median); got != 0 {
		t.Errorf("halvesSpread = %v, want 0", got)
	}
	if got := halvesSpread([]float64{10, 20, 10, 20}, median); math.Abs(got-10.0/15) > 1e-12 {
		t.Errorf("halvesSpread = %v, want 2/3", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "workload", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "setup", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "solve", Start: 25, End: 60}, // overlaps setup by 5
		{ID: 4, Parent: 3, Name: "newton.step[1]", Start: 30, End: 50},
		{ID: 5, Parent: 1, Name: "late", Start: 90, End: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - (50 + 10), 2: 20, 3: 35 - 20, 4: 20, 5: 30}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}

	tr := newTracer()
	root := tr.begin(0, "root")
	child := tr.begin(root, "child")
	tr.end(child, map[string]any{"k": 1})
	tr.begin(root, "never closed")
	tr.end(root, nil)
	got := tr.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Attrs["k"] != 1 {
		t.Errorf("snapshot = %+v", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin(0, "x"), nil) // the untraced pass: no-ops
	if nilTracer.snapshot() != nil {
		t.Error("nil tracer recorded spans")
	}

	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != len(spans) {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

func TestJobGenerator(t *testing.T) {
	a, b, c := genJobs(42, 200), genJobs(42, 200), genJobs(7, 200)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed gave different job sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same job sequence")
	}
	for _, jobs := range [][]serviceJob{a, c} {
		for lo := 0; lo < len(jobs); lo += 10 {
			big := 0
			for _, j := range jobs[lo : lo+10] {
				if j.Big {
					big++
				}
				if j.AlphaDeg < 0 || j.AlphaDeg >= 6 {
					t.Fatalf("alpha %v outside [0, 6)", j.AlphaDeg)
				}
			}
			if big != 1 {
				t.Fatalf("block at %d has %d big jobs, want exactly 1", lo, big)
			}
		}
	}
	if n := len(genJobs(1, 6)); n != 6 {
		t.Errorf("short sequence has %d jobs", n)
	}
}

// benchmarkJSON mirrors the schema of the contract file.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
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

// TestBenchmarkJSON checks the contract file against the registry and the
// contract's own limits, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(data))
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the allowed charset or length", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	var wl []string
	for _, w := range bj.Workloads {
		name(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("workloads = %v, want %v", wl, workloadNames)
	}

	if len(bj.EndToEnd) < 1 || len(bj.EndToEnd) > 16 || len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, registry has %d (limit 16)", len(bj.EndToEnd), len(endToEnd))
	}
	hasSetup := false
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		name(m.Name)
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, registry has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %v outside the contract", m.Name, m.Unit, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			if m.Bound < maxBound {
				t.Errorf("setup_s should carry the largest bound")
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, d := range endToEnd {
		if d.Name == "setup_s" && d.Bound < maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", d.Bound, maxBound)
		}
	}

	declared := declaredPerLayer()
	if len(bj.PerLayer) < 1 || len(bj.PerLayer) > 128 || len(bj.PerLayer) != len(declared) {
		t.Fatalf("%d per-layer metrics declared, registry declares %d (limit 128)", len(bj.PerLayer), len(declared))
	}
	for i, m := range bj.PerLayer {
		name(m.Name)
		d := declared[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, registry has %+v", i, m, d)
		}
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q outside the contract", m.Name, m.Unit)
		}
	}
	if len(perLayer) != 82 {
		t.Errorf("registry has %d per-layer metrics, the issue names 82", len(perLayer))
	}
	for _, d := range perLayer {
		if d.Only != "" && d.Kind != kindMeasured {
			t.Errorf("%s: only measured times may be workload-specific", d.Name)
		}
	}
}

// TestSmokeAllWorkloads runs both passes of all four workloads at the tiny
// size (SpecTiny, 4 ranks, 6 jobs) and checks that each produces every
// metric it owes, with no failed operation.
func TestSmokeAllWorkloads(t *testing.T) {
	sz := tinySizing()
	dir := t.TempDir()
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			t0 := time.Now()
			p, err := runPass(w, sz, 3, trace, dir)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !p.correct() {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w, trace, p.Failed, p.Attempted, p.Failures)
			}
			line, err := p.contract()
			if err != nil {
				t.Errorf("%s trace=%v: %v", w, trace, err)
			}
			for n, m := range line.Metrics {
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, n, m.Value)
				}
			}
			if trace {
				for _, d := range perLayer {
					if _, ok := p.Metrics[d.Name]; ok != (d.Only == "" || d.Only == w) {
						t.Errorf("%s: metric %s present=%v", w, d.Name, ok)
					}
				}
				if _, err := os.Stat(p.TraceFile); err != nil {
					t.Errorf("%s: no trace file: %v", w, err)
				}
			}
			var buf bytes.Buffer
			p.print(&buf)
			if !strings.Contains(buf.String(), "fail_share") {
				t.Errorf("%s: table lacks fail_share", w)
			}
			t.Logf("%s trace=%v: %d ops in %v", w, trace, p.Attempted, time.Since(t0).Round(time.Millisecond))
		}
	}
}

// TestGBsNeedsTriad: a computed bandwidth is refused without the host's
// measured bandwidth from the same run.
func TestGBsNeedsTriad(t *testing.T) {
	p := newPass(wlWingO1, 1, 1, true)
	if err := p.setGBs("flux.residual_o1_gb_s", 1e9, 1); err == nil {
		t.Error("setGBs accepted a figure without host.triad_gb_s")
	}
	p.set("host.triad_gb_s", 10)
	if err := p.setGBs("flux.residual_o1_gb_s", 2e9, 1); err != nil || p.Metrics["flux.residual_o1_gb_s"].Value != 2 {
		t.Errorf("setGBs: %v, %+v", err, p.Metrics["flux.residual_o1_gb_s"])
	}
}

func TestDrift(t *testing.T) {
	if d := driftPct(10, 10.5, 1, 1.02); math.Abs(d-5) > 1e-9 {
		t.Errorf("drift = %v, want 5", d)
	}
	if d := driftPct(10, 10, 1, 1.2); math.Abs(d-20) > 1e-9 || d <= driftNoisyPct {
		t.Errorf("drift = %v, want 20 (noisy)", d)
	}
}

func TestCompareSets(t *testing.T) {
	mk := func(p50 float64, iters int64) resultSet {
		p := newPass(wlWingO1, 42, 20, false)
		p.attempt(nil)
		for _, d := range endToEnd {
			p.set(d.Name, 100)
		}
		p.setSamples("op_p50_ms", []float64{p50 * 0.999, p50, p50 * 1.001})
		p.Counts["linear_iters"] = iters
		q := newPass(wlWingO1, 42, 20, true)
		q.attempt(nil)
		q.set("newton.steps", float64(iters/10))
		return resultSet{Schema: resultSchema, Seed: 42, Passes: []*passResult{p, q}}
	}
	bound := endToEnd[0].Bound // of op_p50_ms
	var buf bytes.Buffer
	if !compareSets(mk(100, 50), mk(100*(1+bound/2), 50), &buf) {
		t.Errorf("worse by half the bound should pass:\n%s", buf.String())
	}
	buf.Reset()
	if compareSets(mk(100, 50), mk(100*(1+1.5*bound), 50), &buf) || !strings.Contains(buf.String(), verdictRegressed) {
		t.Errorf("worse by 1.5 bounds should regress:\n%s", buf.String())
	}
	buf.Reset()
	if compareSets(mk(100, 50), mk(100, 60), &buf) || !strings.Contains(buf.String(), "[c]") {
		t.Errorf("a changed count should fail:\n%s", buf.String())
	}
}
