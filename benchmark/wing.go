package main

import (
	"fmt"
	"runtime"
	"time"

	"fun3d/internal/core"
	"fun3d/internal/mesh"
	"fun3d/internal/newton"
)

const wingRelTol = 1e-6

// wingOptions are the nonlinear solve settings of both wing workloads.
func wingOptions() newton.Options { return newton.Options{CFL0: 10, RelTol: wingRelTol} }

// wingConfig is the solver configuration of a wing workload.
//
// wing-o1-seq is the paper's Table I baseline: one thread, RCM, ILU(1),
// first order. No par, partition or P2P code runs, so it is immune to
// scheduler noise, and the sparse recurrences plus the Jacobian do half
// the work.
//
// wing-o2-par turns every threaded layer on (pool, owner-writes partition,
// P2P recurrences, threaded vector primitives) and runs the second-order
// limited residual as the default three-sweep pipeline, so the edge
// kernels do most of the work; ILU(0) gives precond/sparse a different
// sparsity and schedule than wing-o1-seq uses.
func wingConfig(name string, seed uint64) (core.Config, error) {
	var cfg core.Config
	switch name {
	case wlWingO1:
		cfg = core.BaselineConfig()
	case wlWingO2:
		cfg = core.OptimizedConfig(solverThreads())
		cfg.SecondOrder, cfg.Limiter = true, true
		cfg.FillLevel = 0
	default:
		return cfg, fmt.Errorf("not a wing workload: %q", name)
	}
	cfg.PartitionSeed = seed
	return cfg, nil
}

// wingInstance is a wing workload's long-lived state: what live_heap_mb
// keeps reachable.
type wingInstance struct {
	m0  *mesh.Mesh // as generated, before reordering
	art *core.Artifact
	app *core.App
	// set-up stage times in seconds
	genS, artS, appS float64
}

func (w *wingInstance) close() {
	if w != nil && w.app != nil {
		w.app.Close()
	}
}

// buildWing is one set-up: mesh.Generate + core.BuildArtifact +
// core.NewAppFromArtifact. The seed picks the vertex numbering and the
// thread partition; the geometry and the flow are the same for every seed.
func buildWing(name string, spec mesh.GenSpec, seed uint64, tr *tracer, parent int) (*wingInstance, error) {
	cfg, err := wingConfig(name, seed)
	if err != nil {
		return nil, err
	}
	spec.Seed = seed
	w := &wingInstance{}

	id := tr.begin(parent, "mesh.Generate")
	t0 := time.Now()
	w.m0, err = mesh.Generate(spec)
	w.genS = time.Since(t0).Seconds()
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}

	id = tr.begin(parent, "core.BuildArtifact")
	t0 = time.Now()
	w.art, err = core.BuildArtifact(w.m0, cfg)
	w.artS = time.Since(t0).Seconds()
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}

	id = tr.begin(parent, "core.NewAppFromArtifact")
	t0 = time.Now()
	w.app, err = core.NewAppFromArtifact(w.art, cfg)
	w.appS = time.Since(t0).Seconds()
	tr.end(id, nil)
	if err != nil {
		return nil, err
	}
	return w, nil
}

// runWing is the untraced pass of a wing workload: a closed loop of one
// client solving to RelTol=1e-6 on one App, ResetState between solves.
func runWing(name string, sz sizing, seed uint64) (*passResult, error) {
	p := newPass(name, seed, sz.Seconds, false)
	rf, err := loadReference()
	if err != nil {
		return nil, err
	}
	ref := rf.lookup(name, meshLabel(sz.Wing))

	inst, setups, err := repeatSetup(
		func() (*wingInstance, error) { return buildWing(name, sz.Wing, seed, nil, 0) },
		func(w *wingInstance) { w.close() },
	)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	p.setSamples("setup_s", setups)

	// Warm-up: one pseudo-time step touches the Jacobian, the factors and
	// the Newton workspace, so the first timed solve does not pay their
	// page faults.
	warm := wingOptions()
	warm.MaxSteps = 1
	if _, err := inst.app.Run(warm); err != nil {
		return nil, fmt.Errorf("warm-up step: %w", err)
	}

	walls, total := timedLoop(sz.Seconds, func() float64 {
		inst.app.ResetState()
		r, err := inst.app.Run(wingOptions())
		p.attempt(checkSolve(inst.app, r, err, wingRelTol, ref, rf.Tolerance))
		p.Counts["newton_steps"] = int64(len(r.History.Steps))
		p.Counts["linear_iters"] = int64(r.History.LinearIters)
		return r.WallTime.Seconds()
	})
	recordOps(p, walls, total, true)

	p.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(inst)
	return p, nil
}

// runWingTraced is the traced pass: one set-up, a cold solve, an untraced
// and a traced warm solve (their difference is the tracing overhead), then
// the ladder on the perturbed converged state.
func runWingTraced(name string, sz sizing, seed uint64) (*passResult, *tracer, error) {
	p := newPass(name, seed, sz.Seconds, true)
	rf, err := loadReference()
	if err != nil {
		return nil, nil, err
	}
	ref := rf.lookup(name, meshLabel(sz.Wing))
	tr := newTracer()
	root := tr.begin(0, "workload:"+name)
	cal := startCalibration(p, sz)

	sid := tr.begin(root, "setup")
	inst, err := buildWing(name, sz.Wing, seed, tr, sid)
	tr.end(sid, nil)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	p.set("mesh.generate_s", inst.genS)
	p.set("core.build_artifact_s", inst.artS)
	p.set("core.new_app_s", inst.appS)

	ref3, err := referenceSolves(p, tr, root, inst.app, wingOptions(), cal, func(r core.RunResult, err error) error {
		p.attempt(checkSolve(inst.app, r, err, wingRelTol, ref, rf.Tolerance))
		return nil // a failed check is counted, not fatal: the ladder still runs
	})
	if err != nil {
		return nil, nil, err
	}
	p.set("prof.trace_overhead_pct", 100*(ref3.traced/ref3.untraced-1))

	if err := runLadder(p, tr, root, ladderInput{
		app: inst.app, m0: inst.m0, seed: seed, ref: ref3,
	}); err != nil {
		return nil, nil, err
	}
	fillAbsent(p, "service.")
	fillAbsent(p, "mpisim.")
	cal.finish(p)
	tr.end(root, nil)
	runtime.KeepAlive(inst)
	return p, tr, nil
}
