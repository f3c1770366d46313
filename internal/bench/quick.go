package bench

import (
	"fmt"

	"fun3d/internal/core"
	"fun3d/internal/mesh"
	"fun3d/internal/mpisim"
	"fun3d/internal/newton"
	"fun3d/internal/perfmodel"
	"fun3d/internal/prof"
)

// quick is the CI experiment: one small second-order single-node solve
// (real wall-clock times and work counters for flux, gradient, Jacobian,
// ILU, TRSV, and the vector primitives) plus one tiny distributed run
// (Allreduce and halo records on the virtual time axis), merged into a
// single all-kernels record. Its artifact, BENCH_quick.json, is what CI
// uploads and what cmd/benchdiff gates against the committed baseline.
func quick(o *Options) error {
	header(o, "Quick: combined per-kernel metrics sample",
		"no direct paper counterpart; exercises every profiled kernel for the CI artifact")

	// Always the tiny mesh — quick stays quick even inside a full run.
	spec := mesh.SpecTiny()
	m, err := mesh.Generate(spec)
	if err != nil {
		return err
	}
	cfg := core.OptimizedConfig(o.MaxThreads)
	cfg.SecondOrder = true
	cfg.Limiter = true
	app, _, err := solveOnce(o, m, cfg, newton.Options{MaxSteps: 3, CFL0: o.CFL0})
	if err != nil {
		return err
	}
	agg := &prof.Metrics{}
	agg.Merge(app.Prof)
	app.Close()

	// A short fused-pipeline solve contributes the residual_sweeps counter
	// and the fused byte accounting that the residual_bytes_per_edge
	// benchdiff gate watches.
	cfgF := cfg
	cfgF.Fused = true
	appF, _, err := solveOnce(o, m, cfgF, newton.Options{MaxSteps: 2, CFL0: o.CFL0})
	if err != nil {
		return err
	}
	agg.Merge(appF.Prof)
	appF.Close()

	// A short staged-pipeline solve contributes the staged gather/scatter
	// byte accounting behind the tile_staged_bytes_per_edge benchdiff gate.
	// Both sides of that rate are exact functions of the two-level tiling,
	// so the gate holds exactly across machines.
	cfgS := cfg
	cfgS.Staged = true
	appS, _, err := solveOnce(o, m, cfgS, newton.Options{MaxSteps: 2, CFL0: o.CFL0})
	if err != nil {
		return err
	}
	agg.Merge(appS.Prof)
	appS.Close()

	// A one-step dedup solve contributes the deduplicated ILU/TRSV byte
	// accounting behind the ilu_bytes_per_row benchdiff gate. One step, so
	// the factorization it books is the freestream step-1 Jacobian — the
	// one with exact-bit repeated blocks for the content hash to collapse.
	cfgD := cfg
	cfgD.Dedup = true
	appD, _, err := solveOnce(o, m, cfgD, newton.Options{MaxSteps: 1, CFL0: o.CFL0})
	if err != nil {
		return err
	}
	agg.Merge(appD.Prof)
	appD.Close()

	// A two-rank distributed step contributes the communication kernels.
	rates, err := perfmodel.Measure(m, 1, false)
	if err != nil {
		return err
	}
	r, err := mpisim.Solve(m, mpisim.Config{
		Ranks:    2,
		Rates:    rates,
		Net:      perfmodel.Stampede(),
		MaxSteps: 1,
		RelTol:   1e-30,
		CFL0:     o.CFL0,
		Seed:     11,
	})
	if err != nil {
		return err
	}
	agg.Merge(r.Metrics)

	// A four-step two-rank run on pinned synthetic rates contributes a
	// machine-independent share of the communication and solver counters.
	rc, err := mpisim.Solve(m, clusterQuickConfig(o))
	if err != nil {
		return err
	}
	agg.Merge(rc.Metrics)

	// A scaling mini-sweep contributes the collective stage/hop counters
	// behind the collective_stages_per_allreduce benchdiff gate: four ranks
	// on two simulated nodes of a fat tree, one step per collective
	// algorithm, on the same pinned synthetic rates as the run above —
	// every stage and hop count is an exact function of (algo, topology,
	// rank count), so the gate holds exactly across machines.
	for _, algo := range []perfmodel.AllreduceAlgo{
		perfmodel.AllreduceTree, perfmodel.AllreduceFlat, perfmodel.AllreduceHier,
	} {
		net := perfmodel.StampedeFatTree()
		net.RanksPerNode = 2
		net.Algo = algo
		rs, err := mpisim.Solve(m, mpisim.Config{
			Ranks:    4,
			Natural:  true,
			Rates:    scalingRates(),
			Net:      net,
			MaxSteps: 1,
			RelTol:   1e-30,
			CFL0:     o.CFL0,
			Seed:     11,
		})
		if err != nil {
			return err
		}
		agg.Merge(rs.Metrics)
	}

	// A placement mini-sweep contributes the point-to-point route counters
	// (ptp_hops, ptp_cross_node_bytes, ptp_cross_pod_bytes) behind the
	// ptp_hops_per_message benchdiff gate: four ranks on four single-rank
	// fat-tree nodes split across two pods, one step per placement. Hops
	// and boundary-crossing bytes are exact functions of (decomposition,
	// placement, topology), so the gate holds exactly across machines.
	for _, place := range []perfmodel.Placement{
		perfmodel.PlaceBlock, perfmodel.PlaceRoundRobin, perfmodel.PlaceLocality,
	} {
		net := perfmodel.StampedeFatTree()
		net.RanksPerNode = 1
		net.PodSize = 2
		net.Place = place
		rp, err := mpisim.Solve(m, mpisim.Config{
			Ranks:    4,
			Natural:  true,
			Rates:    scalingRates(),
			Net:      net,
			MaxSteps: 1,
			RelTol:   1e-30,
			CFL0:     o.CFL0,
			Seed:     11,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(o.Out, "   placement mini-run %v: %d hops, %d cross-node B, %d cross-pod B\n",
			place, rp.PtPHops, rp.PtPCrossNodeBytes, rp.PtPCrossPodBytes)
		agg.Merge(rp.Metrics)
	}

	// A two-job service mini-run contributes the multi-solve counters and
	// the Service batch clock. Both jobs run exactly 2 fixed steps, so the
	// service_steps_per_job gate sees 2.0 on any machine.
	if _, err := runServiceBatch(spec, cfg, 2, []float64{0, 3.06}, 2, agg); err != nil {
		return err
	}

	w := table(o)
	fmt.Fprintln(w, "kernel\tseconds\tcalls\tbytes\tGB/s")
	for _, k := range prof.Kernels() {
		s := agg.Total(k).Seconds()
		if s == 0 && agg.Count(k) == 0 {
			continue
		}
		fmt.Fprintf(w, "%v\t%.4f\t%d\t%d\t%.2f\n",
			k, s, agg.Count(k), agg.Bytes(k), agg.Bandwidth(k)/1e9)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return emit(o, "quick", agg, m, map[string]any{
		"threads":         o.MaxThreads,
		"newton_steps":    3,
		"fused_steps":     2,
		"staged_steps":    2,
		"dedup_steps":     1,
		"ranks":           2,
		"scaling_ranks":   4,
		"placement_ranks": 4,
		"placements":      []string{"block", "roundrobin", "locality"},
		"cfl0":            o.CFL0,
		"service_jobs":    2,
		"service_steps":   2,
	}, nil)
}

// clusterQuickConfig is the quick experiment's four-step two-rank
// distributed run on fixed synthetic rates.
func clusterQuickConfig(o *Options) mpisim.Config {
	return mpisim.Config{
		Ranks:    2,
		Rates:    scalingRates(),
		Net:      perfmodel.Stampede(),
		MaxSteps: 4,
		RelTol:   1e-30,
		CFL0:     o.CFL0,
		Seed:     11,
	}
}
