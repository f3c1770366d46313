package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"strings"
)

// header records where and how a pass ran — the noise canary's context.
type header struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	Threads    int    `json:"solver_threads"`
	Commit     string `json:"commit"`
}

// commit is stamped by run.sh (-ldflags -X main.commit=...); it stays
// "unknown" outside a git checkout and under plain `go run` / `go test`.
var commit = "unknown"

func newHeader() header {
	return header{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Threads: solverThreads(), Commit: commit,
	}
}

// passResult is one pass (untraced or traced) of one workload.
type passResult struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Header   header  `json:"header"`

	// Attempted/Failed count operations (solves, jobs, simulated solves);
	// an operation whose output check fails counts as failed.
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	// Noisy is set when host.drift_pct exceeded driftNoisyPct.
	Noisy bool `json:"noisy,omitempty"`

	Metrics map[string]measurement `json:"metrics"`
	// Counts are reported, not gated: steps and linear iterations of the
	// timed operations.
	Counts map[string]int64 `json:"counts,omitempty"`

	TraceFile string `json:"trace_file,omitempty"`
}

func newPass(workload string, seed uint64, seconds float64, trace bool) *passResult {
	return &passResult{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		Header: newHeader(), Metrics: map[string]measurement{}, Counts: map[string]int64{},
	}
}

// correct reports whether every attempted operation passed its check.
func (p *passResult) correct() bool { return p.Attempted > 0 && p.Failed == 0 }

// failShare is the issue's fail_share: failed or refused operations over
// attempted ones.
func (p *passResult) failShare() float64 {
	if p.Attempted == 0 {
		return 1
	}
	return float64(p.Failed) / float64(p.Attempted)
}

// attempt books one operation; a non-nil err marks it failed.
func (p *passResult) attempt(err error) {
	p.Attempted++
	if err != nil {
		p.Failed++
		if len(p.Failures) < 20 {
			p.Failures = append(p.Failures, err.Error())
		}
	}
}

// set records a single-sample metric; unit and kind come from the registry.
func (p *passResult) set(name string, v float64) {
	p.setSamples(name, []float64{v})
}

// setSamples records a metric as the median of its samples.
func (p *passResult) setSamples(name string, xs []float64) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("benchmark: unregistered metric " + name)
	}
	p.Metrics[name] = summarize(xs, d.Unit, d.Kind)
}

// recordOps turns per-operation wall times (seconds) into the three
// operation metrics. repeats says the operations were repeats of one and
// the same piece of work (solves), not a mix (service jobs).
func recordOps(p *passResult, walls []float64, total float64, repeats bool) {
	ms := make([]float64, len(walls))
	for i, w := range walls {
		ms[i] = 1e3 * w
	}
	p95 := func(xs []float64) float64 { return percentile(xs, 95) }
	m50 := summarize(ms, "ms", kindMeasured)
	m95 := m50
	m95.Value = p95(ms)
	if !repeats {
		m50.Spread, m95.Spread = halvesSpread(ms, median), halvesSpread(ms, p95)
	}
	p.Metrics["op_p50_ms"], p.Metrics["op_p95_ms"] = m50, m95
	p.Counts["ops"] = int64(len(walls))
	p.Counts["p95_samples_beyond"] = int64(samplesBeyond(len(walls), 95))
	p.set("ops_per_s", float64(len(walls))/total)
}

// setGBs records a computed bandwidth (model bytes over measured seconds).
// It refuses to without host.triad_gb_s from the same run: a *_gb_s figure
// is only meaningful next to the bandwidth this host actually delivers.
func (p *passResult) setGBs(name string, bytes int64, seconds float64) error {
	if _, ok := p.Metrics["host.triad_gb_s"]; !ok {
		return fmt.Errorf("%s: no host.triad_gb_s in this run to read it against", name)
	}
	p.set(name, float64(bytes)/seconds/1e9)
	return nil
}

// contractLine is the last line of a pass's standard output.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contract selects the metrics the pass owes: every end-to-end metric for
// an untraced pass, every declared per-layer metric for a traced one.
func (p *passResult) contract() (contractLine, error) {
	defs := endToEnd
	if p.Trace {
		defs = declaredPerLayer()
	}
	out := contractLine{Correct: p.correct(), Attempted: p.Attempted, Failed: p.Failed, Metrics: map[string]contractMetric{}}
	for _, d := range defs {
		m, ok := p.Metrics[d.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return out, fmt.Errorf("metric %s is %v", d.Name, m.Value)
		}
		out.Metrics[d.Name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return out, nil
}

// print writes the pass as a table: every metric by name with its kind tag
// and unit, the samples behind it, and the issue-11 alias where one exists.
func (p *passResult) print(w io.Writer) {
	mode := "untraced"
	if p.Trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s pass, seed %d, %gs)  %s GOMAXPROCS=%d nproc=%d T=%d commit=%s\n",
		p.Workload, mode, p.Seed, p.Seconds, p.Header.GoVersion, p.Header.GOMAXPROCS, p.Header.NumCPU, p.Header.Threads, p.Header.Commit)
	names := make([]string, 0, len(p.Metrics))
	for n := range p.Metrics {
		names = append(names, n)
	}
	order := map[string]int{}
	for i, d := range endToEnd {
		order[d.Name] = i
	}
	for i, d := range perLayer {
		order[d.Name] = len(endToEnd) + i
	}
	sort.Slice(names, func(i, j int) bool { return order[names[i]] < order[names[j]] })
	for _, n := range names {
		m := p.Metrics[n]
		digits := 6
		if m.Kind == kindCounted {
			digits = 12 // counts print exactly
		}
		line := fmt.Sprintf("  %-34s [%s] %14.*g %-9s", n, m.Kind, digits, m.Value, m.Unit)
		if m.N > 1 {
			line += fmt.Sprintf(" n=%d min=%.6g max=%.6g spread=%.2f%%", m.N, m.Min, m.Max, 100*m.Spread)
		}
		if alias, f, unit := issueAlias(n, p.Workload); alias != "" {
			line += fmt.Sprintf("  (%s = %.6g %s)", alias, m.Value*f, unit)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	if len(p.Counts) > 0 {
		keys := make([]string, 0, len(p.Counts))
		for k := range p.Counts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-34s [c] %14d reported, not gated\n", k, p.Counts[k])
		}
	}
	fmt.Fprintf(w, "  %-34s [c] %14.6g fraction  (%d failed of %d attempted)\n", "fail_share", p.failShare(), p.Failed, p.Attempted)
	for _, f := range p.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if p.Noisy {
		fmt.Fprintf(w, "  NOISY: host.drift_pct above %d%% — treat the measured numbers of this pass as unreliable\n", driftNoisyPct)
	}
	if p.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", p.TraceFile)
	}
}

// resultSet is what a full run writes: both passes of every workload.
type resultSet struct {
	Schema string        `json:"schema"`
	Seed   uint64        `json:"seed"`
	Passes []*passResult `json:"passes"`
}

const resultSchema = "fun3d-benchmark/v1"

func marshalIndent(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
