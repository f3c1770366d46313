package bench

import (
	"fmt"

	"fun3d/internal/mesh"
	"fun3d/internal/mpisim"
	"fun3d/internal/perfmodel"
	"fun3d/internal/prof"
)

// scalingRanks is the Fig-9/10/11 campaign's rank axis: 64 -> 16384,
// spanning the paper's largest runs by two orders of magnitude.
var scalingRanks = []int{64, 256, 1024, 4096, 16384}

// scalingQuickRanks keeps the CI variant of the campaign to a few seconds.
var scalingQuickRanks = []int{16, 64}

// scaling runs the large-rank campaign behind the Fig-9/10/11 discussion:
// every rank count x {classical, pipelined} GMRES x {flat, tree,
// hierarchical} Allreduce, on an explicit fat-tree topology. Kernel rates
// are pinned synthetic values and the decomposition is natural blocks, so
// every reported number — virtual times, Allreduce shares, stage and hop
// counts — is an exact function of the schedule, never of this host. One
// mpisim.Artifact is built per rank count and shared across all six
// combinations (the structural state is the expensive part at 16k ranks).
func scaling(o *Options) error {
	header(o, "Scaling: ranks x GMRES variant x collective algorithm",
		"the >64-node regime where collectives dominate: hierarchical SMP-aware Allreduce flattens the latency term the flat model explodes on")

	rates := scalingRates()
	net, err := scalingNet(o)
	if err != nil {
		return err
	}

	rankCounts := scalingRanks
	spec := mesh.GenSpec{NX: 28, NY: 26, NZ: 24, Shuffle: true, Seed: 7}
	if o.Quick {
		rankCounts = scalingQuickRanks
		spec = mesh.SpecTiny()
	}
	m, err := mesh.Generate(spec)
	if err != nil {
		return err
	}

	variants := []string{"classical", "pipelined"}
	algos := []perfmodel.AllreduceAlgo{
		perfmodel.AllreduceFlat, perfmodel.AllreduceTree, perfmodel.AllreduceHier,
	}

	w := table(o)
	fmt.Fprintln(w, "ranks\tnodes\tgmres\tallreduce\ttime\tallreduce share\tstages/coll\thops/coll")
	agg := &prof.Metrics{}
	series := map[string][]float64{}
	for _, p := range rankCounts {
		art, err := mpisim.BuildArtifact(m, mpisim.ClusterSpec{Ranks: p, Natural: true, Seed: 11})
		if err != nil {
			return err
		}
		for _, variant := range variants {
			for _, algo := range algos {
				cfg := scalingConfig(o, p, rates, net)
				cfg.Net.Algo = algo
				cfg.Pipelined = variant == "pipelined"
				r, err := mpisim.SolveArtifact(art, cfg)
				if err != nil {
					return err
				}
				share := 0.0
				if tot := r.ComputeTime + r.PtPTime + r.AllreduceTime; tot > 0 {
					share = r.AllreduceTime / tot
				}
				stages, hops := 0.0, 0.0
				if r.Allreduces > 0 {
					stages = float64(r.AllreduceStages) / float64(r.Allreduces)
					hops = float64(r.AllreduceHops) / float64(r.Allreduces)
				}
				fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%.4fs\t%.1f%%\t%.1f\t%.1f\n",
					p, net.Nodes(p), variant, algo, r.Time, 100*share, stages, hops)
				key := variant + "_" + algo.String()
				series["time_"+key] = append(series["time_"+key], r.Time)
				series["allreduce_share_"+key] = append(series["allreduce_share_"+key], share)
				series["stages_per_collective_"+key] = append(series["stages_per_collective_"+key], stages)
				series["hops_per_collective_"+key] = append(series["hops_per_collective_"+key], hops)
				agg.Merge(r.Metrics)
			}
		}
	}
	fmt.Fprintln(w, "(virtual seconds on pinned synthetic rates; identical numerics per GMRES variant across collective algorithms)")
	if err := w.Flush(); err != nil {
		return err
	}

	cfgOut := map[string]any{
		"rank_counts":    rankCounts,
		"ranks_per_node": net.RanksPerNode,
		"topology":       net.Topo.String(),
		"gmres_variants": variants,
		"allreduce":      []string{"flat", "tree", "hierarchical"},
		"cluster_steps":  1,
		"rates":          "synthetic (pinned)",
		"time_axis":      "virtual",
	}
	for k, v := range series {
		cfgOut[k] = v
	}
	return emit(o, "scaling", agg, m, cfgOut, nil)
}

// scalingRates are fixed synthetic per-unit kernel costs, deliberately not
// measured on the host: every virtual time and counter they drive is plain
// IEEE arithmetic, so the campaign's numbers reproduce across machines.
func scalingRates() perfmodel.Rates {
	return perfmodel.Rates{
		FluxPerEdge:  150e-9,
		GradPerEdge:  40e-9,
		JacPerEdge:   250e-9,
		ILUPerBlock:  30e-9,
		TRSVPerBlock: 8e-9,
		VecPerElem:   1e-9,
		Threads:      1,
	}
}

// scalingNet is the campaign's fabric: the Stampede-like parameters with
// the fat-tree hop model (or Options.Topology's override) and the paper's
// 16 ranks per node.
func scalingNet(o *Options) (perfmodel.Network, error) {
	net := perfmodel.StampedeFatTree()
	net.RanksPerNode = 16
	if o.Topology != "" {
		topo, err := perfmodel.ParseTopology(o.Topology)
		if err != nil {
			return net, err
		}
		net.Topo = topo
	}
	if o.Placement != "" {
		place, err := perfmodel.ParsePlacement(o.Placement)
		if err != nil {
			return net, err
		}
		net.Place = place
	}
	return net, nil
}

// scalingConfig is one campaign run: fixed single-step work so all
// combinations are comparable, natural decomposition matching the shared
// artifact.
func scalingConfig(o *Options, ranks int, rates perfmodel.Rates, net perfmodel.Network) mpisim.Config {
	return mpisim.Config{
		Ranks:    ranks,
		Natural:  true,
		Rates:    rates,
		Net:      net,
		MaxSteps: 1,
		RelTol:   1e-30,
		CFL0:     o.CFL0,
		Seed:     11,
	}
}
