package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Verdicts of one (workload, end-to-end metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"  // worse than the base by more than the bound
	verdictUnresolved = "unresolved" // the samples' own spread is wider than the bound
)

// judge compares value against base for a metric gated by bound. spread is
// the wider of the two sides' in-run spreads: when it exceeds the bound the
// pairing cannot tell a regression from noise either way.
func judge(base, value, spread, bound float64, better string) (worse float64, verdict string) {
	worse = worsening(base, value, better)
	switch {
	case spread > bound:
		return worse, verdictUnresolved
	case worse > bound:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// countsCompared are the reported counts that must repeat exactly; the
// others (number of timed operations) depend on the host's speed.
var countsCompared = []string{"newton_steps", "linear_iters"}

func loadResultSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	if set.Schema != resultSchema {
		return set, fmt.Errorf("%s: schema %q, want %q", path, set.Schema, resultSchema)
	}
	return set, nil
}

// compareFiles prints, for every workload, each end-to-end metric of B as
// a ratio of its base in A with a verdict, and checks that every counted
// metric is bit-identical. It reports whether everything is ok.
func compareFiles(aPath, bPath string, w io.Writer) (bool, error) {
	a, err := loadResultSet(aPath)
	if err != nil {
		return false, err
	}
	b, err := loadResultSet(bPath)
	if err != nil {
		return false, err
	}
	return compareSets(a, b, w), nil
}

func compareSets(a, b resultSet, w io.Writer) bool {
	type key struct {
		workload string
		trace    bool
	}
	base := map[key]*passResult{}
	for _, p := range a.Passes {
		base[key{p.Workload, p.Trace}] = p
	}
	ok := true
	if a.Seed != b.Seed {
		fmt.Fprintf(w, "note: seeds differ (%d vs %d): counted metrics are only comparable at equal seeds\n", a.Seed, b.Seed)
	}
	for _, pb := range b.Passes {
		pa, found := base[key{pb.Workload, pb.Trace}]
		if !found {
			fmt.Fprintf(w, "%-14s trace=%v: missing from base\n", pb.Workload, pb.Trace)
			ok = false
			continue
		}
		if !pb.Trace {
			for _, d := range endToEnd {
				ma, mb := pa.Metrics[d.Name], pb.Metrics[d.Name]
				spread := max(ma.Spread, mb.Spread)
				worse, verdict := judge(ma.Value, mb.Value, spread, d.Bound, d.Better)
				fmt.Fprintf(w, "%-14s %-13s %12.6g / %12.6g %-4s = %.4f  worse by %+6.2f%%  spread %5.2f%%  bound %2.0f%%  %s\n",
					pb.Workload, d.Name, mb.Value, ma.Value, ma.Unit, mb.Value/ma.Value, 100*worse, 100*spread, 100*d.Bound, verdict)
				if verdict != verdictOK {
					ok = false
				}
			}
			if fa, fb := pa.failShare(), pb.failShare(); fb > fa || fb > 0 {
				fmt.Fprintf(w, "%-14s fail_share    %g (base %g)  %s\n", pb.Workload, fb, fa, verdictRegressed)
				ok = false
			}
		}
		if a.Seed != b.Seed {
			continue
		}
		names := make([]string, 0, len(pb.Metrics))
		for n, m := range pb.Metrics {
			if m.Kind == kindCounted && !scheduleDependent[n] {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if ma, has := pa.Metrics[n]; !has || ma.Value != pb.Metrics[n].Value {
				fmt.Fprintf(w, "%-14s %-34s [c] %v != base %v\n", pb.Workload, n, pb.Metrics[n].Value, ma.Value)
				ok = false
			}
		}
		for _, n := range countsCompared {
			if pa.Counts[n] != pb.Counts[n] {
				fmt.Fprintf(w, "%-14s %-34s [c] %d != base %d\n", pb.Workload, n, pb.Counts[n], pa.Counts[n])
				ok = false
			}
		}
	}
	if ok {
		fmt.Fprintln(w, "all end-to-end metrics within their bounds; counted metrics identical")
	}
	return ok
}
