// Command benchmark is the repository's performance gate: four named
// workloads, five end-to-end metrics and a per-layer ladder from
// physics.RoeFlux up to a fun3dd job and a simulated rank-step, all read
// off the host wall clock from outside the layers' public functions.
//
//	bash benchmark/run.sh                                  # all workloads, both passes
//	bash benchmark/run.sh --workload wing-o1-seq --seed 42 --seconds 20 --trace 0
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh -write-reference
//
// See README.md for the metric glossary and BENCHMARK.json for the
// contract the driver runs it under.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run this one workload in-process and end with the one-line JSON result (default: all four, each pass in a fresh child process)")
	seed := fs.Uint64("seed", 42, "workload seed: vertex numbering, thread and rank partitions, service job sequence, ladder perturbation")
	seconds := fs.Float64("seconds", 20, "how long one run measures")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced pass")
	outDir := fs.String("out", "benchmark/out", "directory for the result set and the Chrome traces")
	result := fs.String("result", "", "also write this pass's full result as JSON to this file (used by the all-workloads mode)")
	doCompare := fs.Bool("compare", false, "compare two result sets: -compare A.json B.json")
	writeRef := fs.Bool("write-reference", false, "regenerate benchmark/reference.json (benchmark-archetype changes only)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	switch {
	case *doCompare:
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two result files"))
		}
		ok, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	case *writeRef:
		if err := writeReference(*seed); err != nil {
			return fail(err)
		}
		return 0
	case *seconds <= 0 || (*trace != 0 && *trace != 1):
		return fail(fmt.Errorf("need -seconds > 0 and -trace 0 or 1"))
	case *workload == "":
		ok, err := runAll(*seed, *seconds, *outDir, stdout, stderr)
		if err != nil {
			return fail(err)
		}
		if !ok {
			return 1
		}
		return 0
	}

	p, err := runPass(*workload, fullSizing(*seconds), *seed, *trace == 1, *outDir)
	if err != nil {
		return fail(err)
	}
	p.print(stdout)
	if *result != "" {
		data, err := marshalIndent(p)
		if err == nil {
			err = os.WriteFile(*result, data, 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	line, err := p.contract()
	if err != nil {
		return fail(err)
	}
	data, err := json.Marshal(line)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintln(stdout, string(data))
	if !p.correct() {
		return 1
	}
	return 0
}

// runPass runs one pass of one workload in this process. A traced pass
// also writes its spans as a Chrome trace under outDir.
func runPass(workload string, sz sizing, seed uint64, trace bool, outDir string) (*passResult, error) {
	if !trace {
		switch workload {
		case wlWingO1, wlWingO2:
			return runWing(workload, sz, seed)
		case wlService:
			return runService(sz, seed)
		case wlCluster:
			return runCluster(sz, seed)
		}
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	var p *passResult
	var tr *tracer
	var err error
	switch workload {
	case wlWingO1, wlWingO2:
		p, tr, err = runWingTraced(workload, sz, seed)
	case wlService:
		p, tr, err = runServiceTraced(sz, seed)
	case wlCluster:
		p, tr, err = runClusterTraced(sz, seed)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	p.TraceFile = filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	if err := writeChrome(p.TraceFile, tr.snapshot()); err != nil {
		return nil, err
	}
	return p, nil
}

// runAll runs the four workloads one after another, untraced then traced,
// each pass in a fresh child process re-exec'd from this binary so heap
// and page-fault state do not leak between them, prints every metric and
// writes the result set. It reports whether every output check passed.
func runAll(seed uint64, seconds float64, outDir string, stdout, stderr io.Writer) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return false, err
	}
	set := resultSet{Schema: resultSchema, Seed: seed}
	ok := true
	for _, w := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			file := filepath.Join(outDir, fmt.Sprintf("pass-%s-trace%d-seed%d.json", w, trace, seed))
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", outDir, "-result", file)
			cmd.Stderr = stderr
			pipe, err := cmd.StdoutPipe()
			if err != nil {
				return false, err
			}
			if err := cmd.Start(); err != nil {
				return false, err
			}
			// Forward the child's table; its last line is the one-line
			// JSON result, which the result file supersedes here.
			sc := bufio.NewScanner(pipe)
			sc.Buffer(nil, 1<<20)
			held, have := "", false
			for sc.Scan() {
				if have {
					fmt.Fprintln(stdout, held)
				}
				held, have = sc.Text(), true
			}
			werr := cmd.Wait()
			data, rerr := os.ReadFile(file)
			if rerr != nil {
				return false, fmt.Errorf("%s trace %d: no result (%v)", w, trace, werr)
			}
			var p passResult
			if err := json.Unmarshal(data, &p); err != nil {
				return false, fmt.Errorf("%s: %w", file, err)
			}
			os.Remove(file)
			set.Passes = append(set.Passes, &p)
			if werr != nil || !p.correct() {
				ok = false
			}
		}
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-seed%d.json", seed))
	data, err := marshalIndent(set)
	if err != nil {
		return false, err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return false, err
	}
	printSummary(stdout, set)
	fmt.Fprintf(stdout, "result set: %s\n", path)
	return ok, nil
}

// printSummary is the end-to-end table across workloads, one row per
// workload and metric, with the bound each is gated by.
func printSummary(w io.Writer, set resultSet) {
	fmt.Fprintf(w, "\n== end-to-end summary (seed %d): median of the run's samples, allowed worsening\n", set.Seed)
	for _, p := range set.Passes {
		if p.Trace {
			continue
		}
		for _, d := range endToEnd {
			m, ok := p.Metrics[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-14s %-13s %14.6g %-5s bound %4.0f%%\n", p.Workload, d.Name, m.Value, m.Unit, 100*d.Bound)
		}
		fmt.Fprintf(w, "  %-14s %-13s %14.6g       bound    0%%\n", p.Workload, "fail_share", p.failShare())
	}
}
