// Package bench implements the experiment harness: one entry point per
// table/figure of the paper's evaluation (Table I, Table II, Figures 5-11).
// Each experiment runs the real code under the relevant configurations and
// prints a "paper vs measured" report. cmd/experiments is the CLI wrapper;
// the root-level Go benchmarks reuse the same runners.
package bench

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"text/tabwriter"

	"fun3d/internal/mesh"
	"fun3d/internal/prof"
)

// Options configures the harness.
type Options struct {
	Out io.Writer

	// JSONDir, when non-empty, makes every experiment write a
	// schema-versioned BENCH_<experiment>.json artifact (see prof.Artifact)
	// next to its text report. cmd/benchdiff compares two such artifacts.
	JSONDir string

	// SingleSpec is the mesh for single-node experiments (default SpecC).
	SingleSpec mesh.GenSpec
	// ClusterSpec is the mesh for multi-node experiments (default SpecC in
	// quick mode, SpecD otherwise).
	ClusterSpec mesh.GenSpec

	// MaxThreads caps thread sweeps (default: NumCPU).
	MaxThreads int

	// NodeCounts for Figures 9-11 (default quick: 1,4,16,64).
	NodeCounts []int
	// RanksPerNode (paper: 16; quick default: 4).
	RanksPerNode int
	// ThreadsPerRankHybrid for Fig 11 (paper: 8; quick default: 4).
	ThreadsPerRankHybrid int

	// ClusterSteps fixes the pseudo-time step count of cluster runs so all
	// configurations do comparable work (default 2).
	ClusterSteps int

	// CFL0 for the solve-based experiments (default 10).
	CFL0 float64

	// GMRES selects the Krylov orthogonalization variant for every solve
	// the harness runs: "classical" (default) or "pipelined" (one Allreduce
	// per inner iteration). The allreduce-scaling experiment runs both
	// regardless of this setting — it IS the comparison.
	GMRES string

	// PFDist overrides the flux prefetch lookahead distance in edges for
	// every prefetch-enabled kernel the harness runs (0 = flux default).
	// The locality experiment additionally sweeps a few distances around
	// it as a sanity check.
	PFDist int

	// Topology overrides the scaling campaign's interconnect hop model:
	// "flat", "fattree", or "dragonfly" (empty = the campaign default,
	// fattree).
	Topology string

	// Placement overrides the scaling campaign's rank→node mapping:
	// "block", "roundrobin", or "locality" (empty = the campaign default,
	// block). The placement experiment sweeps all three regardless — it IS
	// the comparison.
	Placement string

	// Quick shrinks everything for CI-style runs.
	Quick bool
}

func (o *Options) defaults() {
	if o.Out == nil {
		panic("bench: Options.Out is required")
	}
	if o.SingleSpec.NX == 0 {
		if o.Quick {
			o.SingleSpec = mesh.SpecTiny()
		} else {
			o.SingleSpec = mesh.SpecC()
		}
	}
	if o.ClusterSpec.NX == 0 {
		if o.Quick {
			o.ClusterSpec = mesh.SpecTiny()
		} else {
			o.ClusterSpec = mesh.SpecC()
		}
	}
	if o.MaxThreads <= 0 {
		o.MaxThreads = runtime.NumCPU()
	}
	if len(o.NodeCounts) == 0 {
		if o.Quick {
			o.NodeCounts = []int{1, 2, 4}
		} else {
			o.NodeCounts = []int{1, 4, 16, 64}
		}
	}
	if o.RanksPerNode <= 0 {
		if o.Quick {
			o.RanksPerNode = 2
		} else {
			o.RanksPerNode = 4
		}
	}
	if o.ThreadsPerRankHybrid <= 0 {
		o.ThreadsPerRankHybrid = 4 // the simulated node's threads, not this host's
	}
	if o.ClusterSteps <= 0 {
		o.ClusterSteps = 2
	}
	if o.CFL0 <= 0 {
		o.CFL0 = 10
	}
	if o.GMRES == "" {
		o.GMRES = "classical"
	}
}

// pipelined reports whether the harness-wide GMRES selection is the
// pipelined variant.
func (o *Options) pipelined() bool { return o.GMRES == "pipelined" }

// experiments is the registry in paper order; "all" runs it front to back.
var experiments = []struct {
	name string
	run  func(*Options) error
}{
	{"table1", table1},
	{"table2", table2},
	{"fig5", fig5},
	{"fig6a", fig6a},
	{"fig6b", fig6b},
	{"fig7a", fig7a},
	{"fig7b", fig7b},
	{"fig8a", fig8a},
	{"fig8b", fig8b},
	{"fig9", fig9},
	{"fig10", fig10},
	{"fig11", fig11},
	{"overlap", overlap},
	{"allreduce-scaling", allreduceScaling},
	{"scaling", scaling},
	{"placement", placement},
	{"locality", locality},
	{"precond", precondExp},
	{"service", serviceExp},
	{"quick", quick},
}

// Experiments lists the available experiment names in paper order.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// Run executes the named experiment ("all" runs every one in order).
func Run(name string, opt Options) error {
	opt.defaults()
	if opt.GMRES != "classical" && opt.GMRES != "pipelined" {
		return fmt.Errorf("bench: unknown GMRES variant %q (want classical or pipelined)", opt.GMRES)
	}
	if name == "all" {
		for _, e := range experiments {
			o := opt // each experiment gets its own copy, as a single run does
			if err := e.run(&o); err != nil {
				return fmt.Errorf("%s: %w", e.name, err)
			}
		}
		return nil
	}
	for _, e := range experiments {
		if e.name == name {
			return e.run(&opt)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (have %v)", name, Experiments())
}

// header prints an experiment banner.
func header(o *Options, title, paperRef string) {
	fmt.Fprintf(o.Out, "\n== %s ==\n   paper reference: %s\n", title, paperRef)
}

// table returns a tabwriter on o.Out; callers must Flush.
func table(o *Options) *tabwriter.Writer {
	return tabwriter.NewWriter(o.Out, 2, 4, 2, ' ', 0)
}

// emit writes the experiment's JSON artifact when Options.JSONDir is set.
// m, config, and paper are optional context sections.
func emit(o *Options, name string, met *prof.Metrics, m *mesh.Mesh, config map[string]any, paper map[string]float64) error {
	if o.JSONDir == "" {
		return nil
	}
	art := prof.NewArtifact(name, met)
	art.Config = config
	art.Paper = paper
	if m != nil {
		art.Mesh = &prof.MeshInfo{Vertices: m.NumVertices(), Edges: m.NumEdges()}
	}
	path := filepath.Join(o.JSONDir, "BENCH_"+name+".json")
	if err := art.WriteFile(path); err != nil {
		return err
	}
	fmt.Fprintf(o.Out, "   wrote %s\n", path)
	return nil
}
