package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"fun3d/internal/core"
	"fun3d/internal/mesh"
	"fun3d/internal/mpisim"
	"fun3d/internal/perfmodel"
)

// clusterRates are pinned synthetic per-unit kernel costs (the values of
// the `scaling` experiment), not measured on the host, so every virtual
// number of the simulated run is an exact function of the schedule.
func clusterRates() perfmodel.Rates {
	return perfmodel.Rates{
		FluxPerEdge: 150e-9, GradPerEdge: 40e-9, JacPerEdge: 250e-9,
		ILUPerBlock: 30e-9, TRSVPerBlock: 8e-9, VecPerElem: 1e-9, Threads: 1,
	}
}

// clusterConfig is one simulated solve: classical GMRES to RelTol=1e-6 on
// a Stampede-like fat tree, hierarchical Allreduce, block placement.
func clusterConfig(sz sizing, seed uint64) mpisim.Config {
	net := perfmodel.StampedeFatTree()
	net.RanksPerNode = sz.RanksPerNode
	net.Algo = perfmodel.AllreduceHier
	return mpisim.Config{
		Ranks: sz.Ranks, Seed: seed, Rates: clusterRates(), Net: net,
		RelTol: wingRelTol, CFL0: 10,
	}
}

// clusterInstance is the workload's long-lived state.
type clusterInstance struct {
	m    *mesh.Mesh
	art  *mpisim.Artifact
	cfg  mpisim.Config
	artS float64 // wall seconds of mpisim.BuildArtifact
}

// buildCluster is one set-up: mesh.Generate + mpisim.BuildArtifact
// (multilevel partition into sz.Ranks subdomains, ILU(0) templates).
func buildCluster(sz sizing, seed uint64, tr *tracer, parent int) (*clusterInstance, error) {
	c := &clusterInstance{cfg: clusterConfig(sz, seed)}
	spec := sz.Wing
	spec.Seed = seed
	id := tr.begin(parent, "mesh.Generate")
	var err error
	c.m, err = mesh.Generate(spec)
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	id = tr.begin(parent, "mpisim.BuildArtifact")
	t0 := time.Now()
	c.art, err = mpisim.BuildArtifact(c.m, mpisim.ClusterSpec{Ranks: sz.Ranks, Seed: seed})
	c.artS = time.Since(t0).Seconds()
	tr.end(id, map[string]any{"ranks": sz.Ranks})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// checkSim is the output check of one simulated solve: converged, with the
// residual reduced as requested and a finite, positive virtual time.
func checkSim(r mpisim.Result, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("simulated solve: %w", err)
	case !r.Converged:
		return fmt.Errorf("simulated solve did not converge: ||R|| %g -> %g in %d steps", r.RNorm0, r.RNormFinal, r.Steps)
	case !(r.RNormFinal <= wingRelTol*r.RNorm0):
		return fmt.Errorf("residual %g above %g x %g", r.RNormFinal, wingRelTol, r.RNorm0)
	case !(r.Time > 0) || math.IsInf(r.Time, 0):
		return fmt.Errorf("virtual time %g is not finite and positive", r.Time)
	}
	return nil
}

// solve runs one simulated solve and returns its result and host wall.
func (c *clusterInstance) solve() (mpisim.Result, float64, error) {
	t0 := time.Now()
	r, err := mpisim.SolveArtifact(c.art, c.cfg)
	return r, time.Since(t0).Seconds(), err
}

// warmUp simulates a single pseudo-time step so the heap has grown to the
// run's working size before the first timed solve.
func (c *clusterInstance) warmUp() error {
	cfg := c.cfg
	cfg.MaxSteps = 1
	if _, err := mpisim.SolveArtifact(c.art, cfg); err != nil {
		return fmt.Errorf("warm-up step: %w", err)
	}
	return nil
}

// runCluster is the untraced pass: simulated solves back to back over one
// artifact. The simulator's user pays host seconds per simulated solve.
func runCluster(sz sizing, seed uint64) (*passResult, error) {
	p := newPass(wlCluster, seed, sz.Seconds, false)
	inst, setups, err := repeatSetup(
		func() (*clusterInstance, error) { return buildCluster(sz, seed, nil, 0) },
		func(*clusterInstance) {},
	)
	if err != nil {
		return nil, err
	}
	p.setSamples("setup_s", setups)
	if err := inst.warmUp(); err != nil {
		return nil, err
	}
	walls, total := timedLoop(sz.Seconds, func() float64 {
		r, wall, err := inst.solve()
		p.attempt(checkSim(r, err))
		p.Counts["newton_steps"], p.Counts["linear_iters"] = int64(r.Steps), int64(r.LinearIters)
		return wall
	})
	recordOps(p, walls, total, true)
	p.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(inst)
	return p, nil
}

// runClusterTraced is the traced pass: an untraced and a traced simulated
// solve, the simulator's own books (virtual time, messages, collectives),
// and the ladder on a mesh the size of one rank's subdomain (sz.RankMesh).
func runClusterTraced(sz sizing, seed uint64) (*passResult, *tracer, error) {
	p := newPass(wlCluster, seed, sz.Seconds, true)
	tr := newTracer()
	root := tr.begin(0, "workload:"+wlCluster)
	cal := startCalibration(p, sz)

	sid := tr.begin(root, "setup")
	inst, err := buildCluster(sz, seed, tr, sid)
	tr.end(sid, nil)
	if err != nil {
		return nil, nil, err
	}
	p.set("mpisim.build_artifact_s", inst.artS)
	if err := inst.warmUp(); err != nil {
		return nil, nil, err
	}

	r, plain, err := inst.solve()
	p.attempt(checkSim(r, err))
	id := tr.begin(root, "mpisim.SolveArtifact")
	r, wall, err := inst.solve()
	tr.end(id, map[string]any{"ranks": sz.Ranks, "steps": r.Steps, "linear_iters": r.LinearIters, "virtual_s": r.Time})
	cerr := checkSim(r, err)
	p.attempt(cerr)
	if cerr != nil {
		return nil, nil, cerr
	}
	p.set("prof.trace_overhead_pct", 100*(wall/plain-1))
	p.set("mpisim.host_us_per_rank_step", 1e6*wall/float64(sz.Ranks*r.Steps))
	p.set("mpisim.host_ms_per_gmres_iter", 1e3*wall/float64(r.LinearIters))
	p.set("mpisim.virtual_s", r.Time)
	virt := r.ComputeTime + r.PtPTime + r.AllreduceTime
	p.set("mpisim.allreduce_share_pct", 100*r.AllreduceTime/virt)
	p.set("mpisim.ptp_share_pct", 100*r.PtPTime/virt)
	p.set("mpisim.steps", float64(r.Steps))
	p.set("mpisim.linear_iters", float64(r.LinearIters))
	p.set("mpisim.msgs", float64(r.Msgs))
	p.set("mpisim.halo_bytes", float64(r.Bytes))
	p.set("mpisim.allreduces", float64(r.Allreduces))
	p.set("mpisim.stages_per_allreduce", float64(r.AllreduceStages)/float64(r.Allreduces))

	// mpisim ranks run first-order, sequential, ILU(0).
	cfg := core.BaselineConfig()
	cfg.FillLevel = 0
	cfg.PartitionSeed = seed
	rankMesh := sz.RankMesh
	rankMesh.Seed = seed
	if err := ladderOnFreshApp(p, tr, root, cal, rankMesh, cfg, seed); err != nil {
		return nil, nil, err
	}
	fillAbsent(p, "service.")
	cal.finish(p)
	tr.end(root, nil)
	runtime.KeepAlive(inst)
	return p, tr, nil
}
