// Command fun3d runs the full solver on a generated wing mesh with all
// optimization switches exposed, printing the convergence history and the
// Fig-5-style per-kernel profile.
//
// Examples:
//
//	fun3d -mesh c -threads 8                 # optimized configuration
//	fun3d -mesh c -baseline                  # the paper's baseline
//	fun3d -mesh tiny -threads 4 -order2      # second-order + limiter
//	fun3d -scale 0.5 -strategy atomic        # half-size mesh, atomics
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"fun3d"
	"fun3d/internal/flux"
	"fun3d/internal/newton"
	"fun3d/internal/precond"
)

func main() {
	var (
		meshName = flag.String("mesh", "c", "mesh preset: tiny, c, d")
		scale    = flag.Float64("scale", 1, "scale the mesh vertex count by this factor")
		baseline = flag.Bool("baseline", false, "run the paper's baseline configuration")
		threads  = flag.Int("threads", runtime.NumCPU(), "worker threads")
		strategy = flag.String("strategy", "metis", "edge-loop strategy: seq, atomic, natural, metis, colored")
		sched    = flag.String("sched", "p2p", "recurrence scheduling: seq, level, p2p")
		fill     = flag.Int("fill", 1, "ILU fill level")
		sub      = flag.Int("subdomains", 1, "additive Schwarz subdomains")
		dedup    = flag.Bool("dedup", false, "content-deduplicate the preconditioner block stores (bit-identical results)")
		order2   = flag.Bool("order2", false, "second-order residual with limiter")
		fused    = flag.Bool("fused", false, "cache-blocked fused residual pipeline (implies -order2)")
		staged   = flag.Bool("staged", false, "hierarchical staged residual pipeline with per-tile SoA buffers (implies -order2)")
		order    = flag.String("order", "", "vertex ordering: natural, rcm, morton, hilbert (default rcm; overrides -no-rcm)")
		tileEdge = flag.Int("tile-edges", 0, "edges per tile for the fused/staged pipelines (0 = default)")
		innerTE  = flag.Int("inner-tile-edges", 0, "edges per inner (L2) tile for the staged pipeline (0 = default)")
		pfdist   = flag.Int("pfdist", 0, "flux prefetch lookahead distance in edges (0 = default)")
		alpha    = flag.Float64("alpha", 3.06, "angle of attack (degrees)")
		cfl      = flag.Float64("cfl", 10, "initial CFL number")
		maxSteps = flag.Int("steps", 60, "max pseudo-time steps")
		relTol   = flag.Float64("tol", 1e-6, "nonlinear relative tolerance")
		noRCM    = flag.Bool("no-rcm", false, "disable RCM reordering")
		noSIMD   = flag.Bool("no-simd", false, "disable SIMD edge batching")
		noPf     = flag.Bool("no-prefetch", false, "disable prefetch lookahead")
		vtkPath  = flag.String("vtk", "", "write the solution as legacy VTK to this path")
		forces   = flag.Bool("forces", false, "integrate and print surface force coefficients")
		savePath = flag.String("save", "", "write a solution checkpoint to this path after solving")
		loadPath = flag.String("load", "", "restore a solution checkpoint before solving")
	)
	flag.Parse()
	if bad := baselineConflicts(flag.CommandLine); len(bad) > 0 {
		fatal(fmt.Errorf("-baseline fixes its own threading and kernel switches; drop %s or -baseline", strings.Join(bad, ", ")))
	}

	spec, err := meshSpec(*meshName, *scale)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("generating mesh %s (scale %.2f)...\n", *meshName, *scale)
	m, err := fun3d.GenerateMesh(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Println("  ", m.ComputeStats())
	if err := m.Validate(); err != nil {
		fatal(fmt.Errorf("mesh validation: %w", err))
	}

	var cfg fun3d.Config
	if *baseline {
		cfg = fun3d.Baseline()
	} else {
		cfg = fun3d.Optimized(*threads)
		cfg.Strategy, err = parseStrategy(*strategy)
		if err != nil {
			fatal(err)
		}
		cfg.Sched, err = parseSched(*sched)
		if err != nil {
			fatal(err)
		}
		cfg.SIMD = !*noSIMD
		cfg.Prefetch = !*noPf
	}
	cfg.FillLevel = *fill
	cfg.Subdomains = *sub
	cfg.Dedup = *dedup
	cfg.SecondOrder = *order2
	cfg.Limiter = *order2
	cfg.AlphaDeg = *alpha
	cfg.RCM = !*noRCM
	if *order != "" {
		cfg.Order, err = fun3d.ParseOrdering(*order)
		if err != nil {
			fatal(err)
		}
	}
	if *fused {
		cfg.Fused = true
		cfg.SecondOrder = true
		cfg.Limiter = true
	}
	if *staged {
		if *fused {
			fatal(fmt.Errorf("-fused and -staged are mutually exclusive ladder rungs"))
		}
		cfg.Staged = true
		cfg.SecondOrder = true
		cfg.Limiter = true
	}
	cfg.TileEdges = *tileEdge
	cfg.InnerTileEdges = *innerTE
	cfg.PFDist = *pfdist

	solver, err := fun3d.NewSolver(m, cfg)
	if err != nil {
		fatal(err)
	}
	defer solver.Close()
	fmt.Println("config:", solver.Describe())
	fmt.Println("ordering:", solver.OrderingStats())
	if *loadPath != "" {
		lf, err := os.Open(*loadPath)
		if err != nil {
			fatal(err)
		}
		err = solver.LoadState(lf)
		if cerr := lf.Close(); err == nil && cerr != nil {
			err = cerr
		}
		var pm *fun3d.ParamMismatchError
		if errors.As(err, &pm) {
			// State loaded; the checkpoint's flow parameters were adopted.
			fmt.Println("warning:", pm)
		} else if err != nil {
			fatal(err)
		}
		fmt.Println("restored checkpoint", *loadPath)
	}

	r, err := solver.Run(newton.Options{MaxSteps: *maxSteps, CFL0: *cfl, RelTol: *relTol})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nconvergence (||R|| per pseudo-time step, CFL, linear iters):\n")
	for _, s := range r.History.Steps {
		fmt.Printf("  step %3d  ||R||=%.4e  CFL=%.3g  iters=%d\n", s.Step, s.RNorm, s.CFL, s.LinearIters)
	}
	fmt.Printf("\nconverged=%v  steps=%d  linear iters=%d  wall=%v\n",
		r.History.Converged, len(r.History.Steps), r.History.LinearIters, r.WallTime)
	fmt.Printf("\nper-kernel profile:\n%s", solver.Profile())

	if *forces {
		f := solver.SurfaceForces(0)
		fmt.Printf("\nsurface forces: CL=%.4f CD=%.4f (Sref=%.4f)\n", f.CL, f.CD, f.SRef)
	}
	if *savePath != "" {
		sf, err := os.Create(*savePath)
		if err != nil {
			fatal(err)
		}
		if err := solver.SaveState(sf); err != nil {
			sf.Close()
			fatal(err)
		}
		// A checkpoint that vanishes into a failed flush is worse than no
		// checkpoint: surface write-back errors before reporting success.
		if err := sf.Sync(); err != nil {
			sf.Close()
			fatal(err)
		}
		if err := sf.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote checkpoint", *savePath)
	}
	if *vtkPath != "" {
		vf, err := os.Create(*vtkPath)
		if err != nil {
			fatal(err)
		}
		if err := solver.WriteVTK(vf); err != nil {
			vf.Close()
			fatal(err)
		}
		if err := vf.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *vtkPath)
	}
}

func meshSpec(name string, scale float64) (fun3d.MeshSpec, error) {
	var spec fun3d.MeshSpec
	switch name {
	case "tiny":
		spec = fun3d.MeshTiny()
	case "c":
		spec = fun3d.MeshC()
	case "d":
		spec = fun3d.MeshD()
	default:
		return spec, fmt.Errorf("unknown mesh %q (tiny, c, d)", name)
	}
	if scale != 1 {
		spec = fun3d.ScaleMesh(spec, scale)
	}
	return spec, nil
}

func parseStrategy(s string) (flux.Strategy, error) {
	switch s {
	case "seq":
		return flux.Sequential, nil
	case "atomic":
		return flux.Atomic, nil
	case "natural":
		return flux.ReplicateNatural, nil
	case "metis":
		return flux.ReplicateMETIS, nil
	case "colored":
		return flux.Colored, nil
	}
	return 0, fmt.Errorf("unknown strategy %q", s)
}

func parseSched(s string) (precond.Scheduling, error) {
	switch s {
	case "seq":
		return precond.SchedSequential, nil
	case "level":
		return precond.SchedLevel, nil
	case "p2p":
		return precond.SchedP2P, nil
	}
	return 0, fmt.Errorf("unknown scheduling %q", s)
}

// baselineConflicts returns the explicitly set flags, as "-name", that
// -baseline would otherwise ignore silently; nil unless -baseline is on.
func baselineConflicts(fs *flag.FlagSet) []string {
	if b := fs.Lookup("baseline"); b == nil || b.Value.String() != "true" {
		return nil
	}
	var bad []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "threads", "strategy", "sched", "no-simd", "no-prefetch":
			bad = append(bad, "-"+f.Name)
		}
	})
	return bad
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fun3d:", err)
	os.Exit(1)
}
