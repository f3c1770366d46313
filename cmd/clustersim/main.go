// Command clustersim runs one simulated multi-node configuration and
// prints the virtual-time breakdown — a direct handle on the machinery
// behind Figures 9-11.
//
// Examples:
//
//	clustersim -ranks 64                       # 64 MPI-only optimized ranks
//	clustersim -ranks 16 -baseline             # unoptimized kernel rates
//	clustersim -ranks 8 -threads-per-rank 4    # hybrid MPI+threads
//	clustersim -ranks 16 -overlap              # nonblocking halo, interior overlap
//	clustersim -ranks 64 -allreduce flat       # linear collective cost model
//	clustersim -ranks 256 -allreduce hierarchical -topology fattree
//	                                           # SMP-aware collective on the fat-tree hop model
//	clustersim -mesh d -ranks 256 -steps 3
//	clustersim -ranks 16 -json run.json        # machine-readable artifact
//	clustersim -ranks 16 -order hilbert -fused # SFC pre-ordering + fused flux rate
package main

import (
	"flag"
	"fmt"
	"os"

	"fun3d"
	"fun3d/internal/mesh"
	"fun3d/internal/perfmodel"
	"fun3d/internal/prof"
)

func main() {
	var (
		meshName = flag.String("mesh", "c", "mesh preset: tiny, c, d")
		scale    = flag.Float64("scale", 1, "mesh scale factor")
		ranks    = flag.Int("ranks", 16, "simulated MPI ranks")
		rpn      = flag.Int("ranks-per-node", 16, "ranks per node (network locality)")
		tpr      = flag.Int("threads-per-rank", 1, "threads per rank (hybrid mode: real pool-threaded kernels)")
		overlap  = flag.Bool("overlap", false, "overlap halo exchange with interior-edge compute")
		allred   = flag.String("allreduce", "tree", "Allreduce cost model: tree, flat, hierarchical")
		topo     = flag.String("topology", "flat", "interconnect hop model: flat, fattree, dragonfly")
		podSize  = flag.Int("pod-size", 16, "nodes per fat-tree leaf pod")
		grpSize  = flag.Int("group-size", 16, "nodes per dragonfly group")
		hopLat   = flag.Float64("hop-latency", 1.0e-6, "added latency per extra switch hop, seconds")
		place    = flag.String("placement", "block", "rank-to-node placement: block, roundrobin, locality (halo-graph-driven)")
		gmres    = flag.String("gmres", "classical", "GMRES variant: classical, pipelined (one Allreduce per iteration)")
		baseline = flag.Bool("baseline", false, "baseline kernel rates instead of optimized")
		order    = flag.String("order", "rcm", "vertex ordering before decomposition: natural, rcm, morton, hilbert")
		fused    = flag.Bool("fused", false, "rescale the flux rate by the measured fused-pipeline speedup")
		staged   = flag.Bool("staged", false, "rescale the flux rate by the measured staged-pipeline speedup")
		natural  = flag.Bool("natural", false, "natural-block decomposition instead of multilevel")
		steps    = flag.Int("steps", 0, "fixed pseudo-time steps (0 = run to convergence)")
		fill     = flag.Int("fill", 0, "ILU fill level per rank")
		dedup    = flag.Bool("dedup", false, "content-deduplicate each rank's ILU block stores (bit-identical results)")
		cfl      = flag.Float64("cfl", 20, "initial CFL")
		jsonOut  = flag.String("json", "", "write a schema-versioned JSON artifact (prof.Artifact) to this path")
	)
	flag.Parse()

	var spec fun3d.MeshSpec
	switch *meshName {
	case "tiny":
		spec = fun3d.MeshTiny()
	case "c":
		spec = fun3d.MeshC()
	case "d":
		spec = fun3d.MeshD()
	default:
		fatal(fmt.Errorf("unknown mesh %q", *meshName))
	}
	if *scale != 1 {
		spec = fun3d.ScaleMesh(spec, *scale)
	}
	m, err := fun3d.GenerateMesh(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Println("mesh:", m.ComputeStats())

	// The vertex ordering is applied to the global mesh before
	// decomposition, mirroring what a production preprocessor would do.
	kind, err := fun3d.ParseOrdering(*order)
	if err != nil {
		fatal(err)
	}
	m, _, ostats, err := fun3d.ReorderMesh(m, kind)
	if err != nil {
		fatal(err)
	}
	fmt.Println("ordering:", ostats)

	fmt.Println("calibrating kernel rates on this machine...")
	sample, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		fatal(err)
	}
	rates, err := perfmodel.Measure(sample, 1, false)
	if err != nil {
		fatal(err)
	}
	var vecRates *perfmodel.Rates
	if !*baseline {
		opt := perfmodel.DeriveOptimized(rates)
		if *tpr > 1 {
			threaded, err := perfmodel.Measure(sample, *tpr, false)
			if err != nil {
				fatal(err)
			}
			seqVec := opt
			vecRates = &seqVec // hybrid: Vec* primitives stay sequential
			opt = perfmodel.ThreadScale(opt, rates, threaded)
		}
		rates = opt
	}
	if *fused && *staged {
		fatal(fmt.Errorf("-fused and -staged are mutually exclusive ladder rungs"))
	}
	if *fused {
		// The simulated numerics are first-order, so the fused pipeline
		// enters as a rate calibration: measure three-sweep vs fused
		// seconds/edge on the sample and rescale the flux rate by the ratio.
		un, fu, err := perfmodel.MeasureFused(sample, *tpr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("fused pipeline: %.0fns/edge vs three-sweep %.0fns/edge (%.2fX)\n",
			1e9*fu, 1e9*un, un/fu)
		rates.FluxPerEdge *= fu / un
	}
	if *staged {
		// Same first-order rescaling convention as -fused, calibrated
		// against the hierarchical staged pipeline instead.
		un, st, err := perfmodel.MeasureStaged(sample, *tpr)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("staged pipeline: %.0fns/edge vs three-sweep %.0fns/edge (%.2fX)\n",
			1e9*st, 1e9*un, un/st)
		rates.FluxPerEdge *= st / un
	}
	fmt.Printf("rates: flux=%.0fns/edge ilu=%.0fns/blk trsv=%.1fns/blk\n",
		1e9*rates.FluxPerEdge, 1e9*rates.ILUPerBlock, 1e9*rates.TRSVPerBlock)

	net := fun3d.StampedeNetwork()
	net.RanksPerNode = *rpn
	if net.Algo, err = fun3d.ParseAllreduce(*allred); err != nil {
		fatal(err)
	}
	if net.Topo, err = fun3d.ParseTopology(*topo); err != nil {
		fatal(err)
	}
	if net.Place, err = fun3d.ParsePlacement(*place); err != nil {
		fatal(err)
	}
	net.PodSize = *podSize
	net.GroupSize = *grpSize
	if net.Topo != fun3d.TopoFlat {
		net.HopLatency = *hopLat
	}
	switch *gmres {
	case "classical", "pipelined":
	default:
		fatal(fmt.Errorf("unknown -gmres %q (want classical or pipelined)", *gmres))
	}
	cfg := fun3d.ClusterConfig{
		Ranks:          *ranks,
		ThreadsPerRank: *tpr,
		Overlap:        *overlap,
		Natural:        *natural,
		Rates:          rates,
		VecRates:       vecRates,
		Net:            net,
		FillLevel:      *fill,
		Dedup:          *dedup,
		CFL0:           *cfl,
		Seed:           11,
		Pipelined:      *gmres == "pipelined",
	}
	if *steps > 0 {
		cfg.MaxSteps = *steps
		cfg.RelTol = 1e-30
	}
	res, err := fun3d.SimulateCluster(m, cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\nranks=%d nodes=%d steps=%d linear-iters=%d converged=%v\n",
		*ranks, (*ranks+*rpn-1)/(*rpn), res.Steps, res.LinearIters, res.Converged)
	fmt.Printf("||R|| %.3e -> %.3e\n", res.RNorm0, res.RNormFinal)
	fmt.Printf("virtual time      %.4fs\n", res.Time)
	fmt.Printf("  compute         %.4fs\n", res.ComputeTime)
	fmt.Printf("  allreduce       %.4fs (%d collectives, %d stages, %d hops)\n",
		res.AllreduceTime, res.Allreduces, res.AllreduceStages, res.AllreduceHops)
	hopsPerMsg := 0.0
	if res.Msgs > 0 {
		hopsPerMsg = float64(res.PtPHops) / float64(res.Msgs)
	}
	fmt.Printf("  point-to-point  %.4fs (%d msgs, %.1f MB, %.2f hops/msg)\n",
		res.PtPTime, res.Msgs, float64(res.Bytes)/1e6, hopsPerMsg)
	fmt.Printf("  route books     cross-node %.1f MB, cross-pod %.1f MB\n",
		float64(res.PtPCrossNodeBytes)/1e6, float64(res.PtPCrossPodBytes)/1e6)
	fmt.Printf("communication fraction: %.1f%%\n", 100*res.CommFraction())

	if *jsonOut != "" {
		art := prof.NewArtifact("clustersim", res.Metrics)
		art.Mesh = &prof.MeshInfo{Vertices: m.NumVertices(), Edges: m.NumEdges()}
		art.Config = map[string]any{
			"ranks":            *ranks,
			"ranks_per_node":   *rpn,
			"threads_per_rank": *tpr,
			"overlap":          *overlap,
			"allreduce":        *allred,
			"topology":         *topo,
			"placement":        *place,
			"gmres":            *gmres,
			"baseline":         *baseline,
			"order":            kind.String(),
			"fused":            *fused,
			"staged":           *staged,
			"fill":             *fill,
			"steps":            res.Steps,
			"time_axis":        "virtual",
		}
		if err := art.WriteFile(*jsonOut); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", *jsonOut)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "clustersim:", err)
	os.Exit(1)
}
