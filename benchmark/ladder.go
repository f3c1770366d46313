package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"fun3d/internal/blas4"
	"fun3d/internal/core"
	"fun3d/internal/flux"
	"fun3d/internal/geom"
	"fun3d/internal/krylov"
	"fun3d/internal/mesh"
	"fun3d/internal/newton"
	"fun3d/internal/par"
	"fun3d/internal/perfmodel"
	"fun3d/internal/physics"
	"fun3d/internal/precond"
	"fun3d/internal/prof"
	"fun3d/internal/reorder"
	"fun3d/internal/sparse"
	"fun3d/internal/tile"
)

// calibration brackets a traced pass with the two host probes. The spin
// loop runs first and last; the triad starts only after the cold solve's
// peak RSS has been read, because its arrays would otherwise be the peak.
type calibration struct {
	sz      sizing
	llc     float64
	spin0   float64
	triad0  float64 // GB/s
	arrayMB float64 // each STREAM array: four times the LLC, capped by the sizing
}

func startCalibration(p *passResult, sz sizing) *calibration {
	c := &calibration{sz: sz, llc: llcMB(), spin0: spin(sz.SpinIters)}
	c.arrayMB = math.Min(4*c.llc, sz.TriadMaxMB)
	p.set("host.nproc", float64(p.Header.NumCPU))
	p.set("host.llc_mb", c.llc)
	return c
}

func (c *calibration) triadNow(p *passResult) {
	c.triad0 = triadGBs(solverThreads(), c.arrayMB)
	p.set("host.triad_gb_s", c.triad0)
	p.Counts["triad_array_mb"] = int64(c.arrayMB)
	p.Counts["triad_threads"] = int64(solverThreads())
}

func (c *calibration) finish(p *passResult) {
	d := driftPct(c.triad0, triadGBs(solverThreads(), c.arrayMB), c.spin0, spin(c.sz.SpinIters))
	p.set("host.drift_pct", d)
	p.Noisy = d > driftNoisyPct
}

// profSnap is a copy of a prof.Metrics' totals and counters.
type profSnap struct {
	kern map[prof.Kernel]time.Duration
	cnt  map[prof.Counter]int64
}

func snapProf(m *prof.Metrics) profSnap {
	s := profSnap{kern: map[prof.Kernel]time.Duration{}, cnt: map[prof.Counter]int64{}}
	for _, k := range prof.Kernels() {
		s.kern[k] = m.Total(k)
	}
	for _, c := range prof.AllCounters() {
		s.cnt[c] = m.Counter(c)
	}
	return s
}

// deltaAttrs renders what one step added to the profile as span attrs.
func deltaAttrs(before, after profSnap) map[string]any {
	out := map[string]any{}
	for k, v := range after.kern {
		if d := v - before.kern[k]; d != 0 {
			out[k.String()+"_ms"] = float64(d) / 1e6
		}
	}
	for c, v := range after.cnt {
		if d := v - before.cnt[c]; d != 0 {
			out[c.String()] = d
		}
	}
	return out
}

// refSolve is the outcome of the three reference solves of a ladder App.
type refSolve struct {
	cold, untraced, traced float64 // wall seconds
	snap                   profSnap
}

// referenceSolves runs the ladder App three times — cold, warm untraced,
// warm traced — and books everything a whole solve says about the layers:
// the cold-start cost, the step timeline cut at OnStep, and how much of
// the wall clock prof's kernel totals explain. onResult sees every solve
// (the wing workloads count them as operations); an error it returns is
// fatal.
func referenceSolves(p *passResult, tr *tracer, parent int, app *core.App, opt newton.Options,
	cal *calibration, onResult func(core.RunResult, error) error) (refSolve, error) {
	var out refSolve

	id := tr.begin(parent, "solve[cold]")
	r, err := app.Run(opt)
	tr.end(id, nil)
	if err := onResult(r, err); err != nil {
		return out, err
	}
	out.cold = r.WallTime.Seconds()
	p.set("core.first_solve_s", out.cold)
	p.set("core.peak_rss_mb", peakRSSMB())
	cal.triadNow(p)

	app.ResetState()
	id = tr.begin(parent, "solve[untraced]")
	r, err = app.Run(opt)
	tr.end(id, nil)
	if err := onResult(r, err); err != nil {
		return out, err
	}
	out.untraced = r.WallTime.Seconds()

	app.ResetState()
	app.Prof.Reset()
	id = tr.begin(parent, "solve")
	var stepMs []float64
	last := time.Now()
	before := snapProf(app.Prof)
	step := tr.begin(id, "newton.step[1]")
	topt := opt
	topt.OnStep = func(s newton.StepStats) {
		now := time.Now()
		stepMs = append(stepMs, float64(now.Sub(last))/1e6)
		last = now
		after := snapProf(app.Prof)
		attrs := deltaAttrs(before, after)
		attrs["rnorm"], attrs["cfl"], attrs["linear_iters"] = s.RNorm, s.CFL, s.LinearIters
		tr.end(step, attrs)
		before = after
		step = tr.begin(id, fmt.Sprintf("newton.step[%d]", s.Step+1))
	}
	r, err = app.Run(topt)
	tr.end(id, map[string]any{"steps": len(r.History.Steps), "linear_iters": r.History.LinearIters})
	if err := onResult(r, err); err != nil {
		return out, err
	}
	out.traced = r.WallTime.Seconds()
	out.snap = snapProf(app.Prof)

	steps := len(r.History.Steps)
	if steps == 0 {
		return out, fmt.Errorf("reference solve took no steps")
	}
	p.set("newton.steps", float64(steps))
	p.set("newton.step_ms_p50", median(stepMs))
	p.set("newton.step_ms_max", percentile(stepMs, 100))
	p.set("krylov.linear_iters", float64(r.History.LinearIters))
	p.set("krylov.iters_per_step", float64(r.History.LinearIters)/float64(steps))
	wall := r.WallTime.Seconds()
	p.set("flux.solve_share_pct", 100*(out.snap.kern[prof.Flux]+out.snap.kern[prof.Gradient]).Seconds()/wall)
	p.set("precond.solve_share_pct", 100*(out.snap.kern[prof.ILU]+out.snap.kern[prof.TRSV]).Seconds()/wall)
	// "Other" is a measured quantity: what the wall clock holds beyond
	// every kernel total prof recorded.
	p.set("newton.prof_residue_pct", 100*(wall-app.Prof.Sum().Seconds())/wall)
	return out, nil
}

// ladderInput is what the ladder measures on: an App at the workload's
// thread count whose state is converged, and the mesh it was built from.
type ladderInput struct {
	app  *core.App
	m0   *mesh.Mesh
	seed uint64
	ref  refSolve
}

// A ladder entry is timed as warm-ups plus up to ladderSamples samples; it
// stops early, but never below ladderMinSamples, once it has used its
// share of the run. A sample repeats calls shorter than ladderMinSample so
// the clock's resolution does not show.
const (
	ladderWarmups    = 2
	ladderSamples    = 7
	ladderMinSamples = 3
	ladderEntryCap   = 600 * time.Millisecond
	ladderMinSample  = 2 * time.Millisecond
)

// ladder times calls; spans land under its parent as <name>[sample].
type ladder struct {
	tr     *tracer
	parent int
}

// time returns the per-call seconds of each sample of fn.
func (l *ladder) time(name string, fn func()) []float64 {
	t0 := time.Now()
	fn() // first warm-up doubles as the estimate of one call
	once := time.Since(t0)
	reps := 1
	if once < ladderMinSample {
		reps = int(ladderMinSample/max(once, time.Nanosecond)) + 1
	}
	for i := 1; i < ladderWarmups; i++ {
		fn()
	}
	var out []float64
	begin := time.Now()
	for s := 0; s < ladderSamples; s++ {
		if s >= ladderMinSamples && time.Since(begin) > ladderEntryCap {
			break
		}
		id := l.tr.begin(l.parent, fmt.Sprintf("%s[%d]", name, s))
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			fn()
		}
		d := time.Since(t0)
		l.tr.end(id, map[string]any{"calls": reps})
		out = append(out, d.Seconds()/float64(reps))
	}
	return out
}

// scaled multiplies every sample.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// kernelSet is one threading of the kernels under test.
type kernelSet struct {
	threads int
	pool    *par.Pool
	kern    *flux.Kernels
	pre     *precond.ASM
}

// altKernelSet builds the other threading of the App's kernels — T threads
// for a sequential App, one thread for a threaded one — with the same code
// variants and fill level, so t1/(T*tT) isolates what threading costs.
func altKernelSet(app *core.App, seed uint64) (*kernelSet, func(), error) {
	T := solverThreads()
	cfg := app.Kern.Cfg
	opt := precond.Options{FillLevel: app.Cfg.FillLevel, Sched: precond.SchedSequential}
	set := &kernelSet{threads: 1}
	closer := func() {}
	cfg.Strategy = flux.Sequential
	if app.Pool == nil {
		set.threads = T
		set.pool = par.NewPool(T)
		closer = set.pool.Close
		cfg.Strategy = flux.ReplicateMETIS
		opt.Sched = precond.SchedP2P
	}
	part, err := flux.NewPartition(app.Mesh, set.threads, cfg.Strategy, seed)
	if err != nil {
		closer()
		return nil, nil, err
	}
	set.kern = flux.NewKernels(app.Mesh, app.Kern.Beta, app.QInf, set.pool, part, cfg)
	set.pre, err = precond.New(app.A, set.pool, opt)
	if err != nil {
		closer()
		return nil, nil, err
	}
	return set, closer, nil
}

// runLadder times each layer's public calls in isolation on the converged
// state perturbed by seeded 1e-3 noise, at the App's thread count, and —
// where the layer is threaded — at the other thread count too.
func runLadder(p *passResult, tr *tracer, parent int, in ladderInput) error {
	lid := tr.begin(parent, "ladder")
	defer tr.end(lid, nil)
	l := &ladder{tr: tr, parent: lid}
	app, m := in.app, in.app.Mesh
	nv, ne := m.NumVertices(), m.NumEdges()
	n := nv * 4
	T := solverThreads()
	rng := rand.New(rand.NewSource(int64(in.seed)))

	q := append([]float64(nil), app.Q...)
	for i := range q {
		q[i] += 1e-3 * rng.NormFloat64()
	}
	res := make([]float64, n)
	grad := make([]float64, nv*12)
	phi := make([]float64, n)
	venk := 5.0 // newton's default limiter constant

	p.set("mesh.vertices", float64(nv))
	p.set("mesh.edges", float64(ne))

	// ---- set-up layers, from outside ----
	g0 := reorder.Graph{Ptr: in.m0.AdjPtr, Adj: in.m0.Adj}
	var perm []int32
	p.setSamples("reorder.rcm_s", l.time("reorder.RCM", func() { perm = reorder.RCM(g0) }))
	p.set("reorder.bandwidth", float64(reorder.Bandwidth(g0, perm)))

	parts := max(T, 2) // a one-part partition would time nothing
	var part *flux.Partition
	var perr error
	p.setSamples("partition.build_s", l.time("flux.NewPartition", func() {
		part, perr = flux.NewPartition(m, parts, flux.ReplicateMETIS, in.seed)
	}))
	if perr != nil {
		return perr
	}
	p.set("partition.replication_pct", 100*part.Replication)

	var cover *flux.Cover
	p.setSamples("tile.build_s", l.time("flux.BuildCover", func() {
		cover = flux.BuildCover(m, app.Art.Part, 0, tile.DefaultInnerEdgesPerTile)
	}))

	// ---- physics and blas4: seeded micro-batches ----
	ladderPhysics(p, l, rng)
	ladderBlas4(p, l, rng)

	// spread gets a pool's workers running side by side again after a
	// sequential stretch of the ladder (see spreadWorkers).
	spread := func(pool *par.Pool) {
		if pool != nil {
			spreadWorkers(pool)
		}
	}

	// ---- flux at the App's threading ----
	spread(app.Pool)
	k := app.Kern
	perEdge, perVertex := 1e9/float64(ne), 1e9/float64(nv)
	tResO1 := l.time("flux.Residual[o1]", func() { k.Residual(q, nil, nil, res) })
	p.setSamples("flux.residual_o1_ns_per_edge", scaled(tResO1, perEdge))
	tGrad := l.time("flux.Gradient", func() { k.Gradient(q, grad) })
	p.setSamples("flux.gradient_ns_per_edge", scaled(tGrad, perEdge))
	tLim := l.time("flux.Limiter", func() { k.Limiter(q, grad, phi, venk) })
	p.setSamples("flux.limiter_ns_per_vertex", scaled(tLim, perVertex))
	tResO2 := l.time("flux.Residual[o2]", func() { k.Residual(q, grad, phi, res) })
	p.setSamples("flux.residual_o2_ns_per_edge", scaled(tResO2, perEdge))
	t3 := l.time("flux.Gradient+Limiter+Residual", func() {
		k.Gradient(q, grad)
		k.Limiter(q, grad, phi, venk)
		k.Residual(q, grad, phi, res)
	})
	p.setSamples("flux.residual_3sweep_ns_per_edge", scaled(t3, perEdge))

	// The fused and staged pipelines run on Kernels of their own (same
	// mesh, pool, partition and code variants) so the App's stay as built.
	kf := flux.NewKernels(m, k.Beta, app.QInf, app.Pool, app.Art.Part, k.Cfg)
	p.setSamples("flux.residual_fused_ns_per_edge",
		scaled(l.time("flux.ResidualFused", func() { kf.ResidualFused(q, res, venk, false) }), perEdge))
	scfg := k.Cfg
	scfg.Staged = true
	ks := flux.NewKernels(m, k.Beta, app.QInf, app.Pool, app.Art.Part, scfg)
	ks.SetCover(cover)
	p.setSamples("flux.residual_staged_ns_per_edge",
		scaled(l.time("flux.ResidualStaged", func() { ks.ResidualStaged(q, res, venk, false) }), perEdge))

	a := app.A
	tJac := l.time("flux.Jacobian", func() { k.Jacobian(q, a) })
	p.setSamples("flux.jacobian_ns_per_edge", scaled(tJac, perEdge))
	if err := p.setGBs("flux.residual_o1_gb_s", k.ResidualBytes(false, false), median(tResO1)); err != nil {
		return err
	}
	bytes3 := k.GradientBytes() + k.ResidualBytes(true, true) // the limiter's vertex sweep is not in the byte model
	if err := p.setGBs("flux.residual_3sweep_gb_s", bytes3, median(t3)); err != nil {
		return err
	}

	// ---- precond at the App's threading ----
	// A small diagonal shift stands in for the pseudo-time term: the
	// recurrences' cost depends on the pattern, not on the values.
	a.AddToDiag(1e-2)
	var ferr error
	tFac := l.time("precond.Factorize", func() {
		if err := app.Pre.Factorize(a); err != nil {
			ferr = err
		}
	})
	if ferr != nil {
		return fmt.Errorf("ladder factorize: %w", ferr)
	}
	blocks := float64(app.Pre.NNZBlocks())
	p.setSamples("precond.factorize_ns_per_block", scaled(tFac, 1e9/blocks))
	k.Residual(q, nil, nil, res)
	z := make([]float64, n)
	tApp := l.time("precond.Apply", func() { app.Pre.Apply(res, z) })
	p.setSamples("precond.apply_ns_per_block", scaled(tApp, 1e9/blocks))
	if err := p.setGBs("precond.apply_gb_s", app.Pre.SolveBytes(), median(tApp)); err != nil {
		return err
	}
	p.set("precond.nnz_blocks", blocks)
	p.set("precond.parallelism", app.Pre.Parallelism())

	// ---- the other threading: what threading itself costs ----
	effRes, effJac, effFac, effApp, speedup := 1.0, 1.0, 1.0, 1.0, 1.0
	if T > 1 {
		alt, closeAlt, err := altKernelSet(app, in.seed)
		if err != nil {
			return err
		}
		suffix := fmt.Sprintf("@%dT", alt.threads)
		spread(alt.pool)
		aResO1 := l.time("flux.Residual[o1]"+suffix, func() { alt.kern.Residual(q, nil, nil, res) })
		aJac := l.time("flux.Jacobian"+suffix, func() { alt.kern.Jacobian(q, a) })
		a.AddToDiag(1e-2)
		aFac := l.time("precond.Factorize"+suffix, func() {
			if err := alt.pre.Factorize(a); err != nil {
				ferr = err
			}
		})
		aApp := l.time("precond.Apply"+suffix, func() { alt.pre.Apply(res, z) })
		closeAlt()
		if ferr != nil {
			return fmt.Errorf("ladder factorize%s: %w", suffix, ferr)
		}
		eff := func(own, other []float64) float64 {
			t1, tT := median(own), median(other)
			if app.Pool != nil {
				t1, tT = tT, t1
			}
			return t1 / (float64(T) * tT)
		}
		effRes, effJac, effFac, effApp = eff(tResO1, aResO1), eff(tJac, aJac), eff(tFac, aFac), eff(tApp, aApp)
		speedup = effRes * float64(T)
	}
	p.set("flux.par_eff_residual", effRes)
	p.set("flux.par_eff_jacobian", effJac)
	p.set("precond.par_eff_factorize", effFac)
	p.set("precond.par_eff_apply", effApp)

	// perfmodel: the ThreadModel's compute-bound projection at T threads,
	// from the measured replication, beside the measured speed-up.
	tm := perfmodel.ThreadModel{Cores: p.Header.NumCPU, BandwidthSatCores: 4, BarrierSeconds: 1e-6}
	rep := 0.0
	if T > 1 {
		rep = part.Replication
	}
	pred := 1 / tm.Compute(1, T, rep, 1)
	p.set("perfmodel.flux_speedup_pred", pred)
	p.set("perfmodel.flux_speedup_err_pct", 100*(pred-speedup)/speedup)

	// ---- vecop at the App's Ops, par on a T-worker pool ----
	spread(app.Pool)
	ops := app.Step.Ops
	x, y := make([]float64, n), make([]float64, n)
	const nvec = 15
	xs := make([][]float64, nvec)
	alphas, dots := make([]float64, nvec), make([]float64, nvec)
	for i := range x {
		x[i], y[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	for j := range xs {
		xs[j] = make([]float64, n)
		alphas[j] = 1e-3 * rng.NormFloat64()
		for i := range xs[j] {
			xs[j][i] = rng.NormFloat64()
		}
	}
	acc := 0.0
	perElem := 1e9 / float64(n)
	p.setSamples("vecop.dot_ns_per_elem", scaled(l.time("vecop.Dot", func() { acc += ops.Dot(x, y) }), perElem))
	p.setSamples("vecop.axpy_ns_per_elem", scaled(l.time("vecop.AXPY", func() { ops.AXPY(1e-9, x, y) }), perElem))
	p.setSamples("vecop.maxpy_ns_per_elem", scaled(l.time("vecop.MAXPY", func() { ops.MAXPY(y, alphas, xs) }), perElem))
	p.setSamples("vecop.mdotnorm_ns_per_elem", scaled(l.time("vecop.MDotNorm", func() { acc += ops.MDotNorm(x, xs, dots) }), perElem))
	sink += acc

	pool := app.Pool
	if pool == nil {
		pool = par.NewPool(T)
		defer pool.Close()
		spread(pool)
	}
	p.setSamples("par.run_ns", scaled(l.time("par.Pool.Run", func() { pool.Run(func(int) {}) }), 1e9))
	p.setSamples("par.parallelfor_ns", scaled(l.time("par.Pool.ParallelFor", func() { pool.ParallelFor(pool.Size(), func(_, _, _ int) {}) }), 1e9))

	// ---- krylov: exactly `restart` iterations on the assembled operator ----
	if err := ladderKrylov(p, l, app, a, res); err != nil {
		return err
	}

	// ---- what isolation hides ----
	// Predict the traced solve from the isolated per-call times and prof's
	// work counters; the residue is cache interference between kernels
	// (negative when a kernel runs faster back-to-back than in the solve).
	c := in.ref.snap.cnt
	fluxEvals := float64(c[prof.FluxEdges]) / float64(ne)
	gradEvals, limEvals := 0.0, 0.0
	tRes := median(tResO1)
	if in.app.Cfg.SecondOrder {
		gradEvals = fluxEvals
		limEvals = float64(c[prof.GradEdges])/float64(ne) - gradEvals
		tRes = median(tResO2)
	}
	predicted := fluxEvals*tRes + gradEvals*median(tGrad) + limEvals*median(tLim) +
		float64(c[prof.JacEdges])/float64(ne)*median(tJac) +
		float64(c[prof.ILUBlocks])/blocks*median(tFac) +
		float64(c[prof.TRSVBlocks])/blocks*median(tApp) +
		float64(c[prof.VecElems])*p.Metrics["vecop.axpy_ns_per_elem"].Value/1e9
	p.set("newton.ladder_residue_pct", 100*(in.ref.traced-predicted)/in.ref.traced)
	return nil
}

// ladderPhysics times RoeFlux and RoeFluxJacobians per call over a seeded
// batch of 4096 state pairs.
func ladderPhysics(p *passResult, l *ladder, rng *rand.Rand) {
	const batch = 4096
	qInf := physics.FreeStream(3.06)
	qL, qR := make([]physics.State, batch), make([]physics.State, batch)
	ns := make([]geom.Vec3, batch)
	for i := 0; i < batch; i++ {
		for c := 0; c < physics.N; c++ {
			qL[i][c] = qInf[c] + 0.05*rng.NormFloat64()
			qR[i][c] = qInf[c] + 0.05*rng.NormFloat64()
		}
		ns[i] = geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
	}
	acc := 0.0
	p.setSamples("physics.roeflux_ns", scaled(l.time("physics.RoeFlux", func() {
		for i := 0; i < batch; i++ {
			f := physics.RoeFlux(qL[i], qR[i], ns[i], 5)
			acc += f[0]
		}
	}), 1e9/batch))
	var dL, dR [16]float64
	p.setSamples("physics.roeflux_jac_ns", scaled(l.time("physics.RoeFluxJacobians", func() {
		for i := 0; i < batch; i++ {
			physics.RoeFluxJacobians(qL[i], qR[i], ns[i], 5, &dL, &dR)
			acc += dL[0] + dR[15]
		}
	}), 1e9/batch))
	sink += acc
}

// ladderBlas4 times the 4x4 micro-kernels of the block recurrences over a
// seeded batch of diagonally dominant blocks.
func ladderBlas4(p *passResult, l *ladder, rng *rand.Rand) {
	const batch = 1024
	blocks := make([]float64, batch*16)
	work := make([]float64, batch*16)
	vec := make([]float64, batch*4)
	for i := range blocks {
		blocks[i] = rng.NormFloat64()
		if (i%16)%5 == 0 {
			blocks[i] += 8
		}
	}
	for i := range vec {
		vec[i] = rng.NormFloat64()
	}
	var yv [4]float64
	p.setSamples("blas4.gemv_ns", scaled(l.time("blas4.Gemv", func() {
		for b := 0; b < batch; b++ {
			blas4.Gemv(blocks[b*16:b*16+16], vec[b*4:b*4+4], yv[:])
		}
	}), 1e9/batch))
	var cm [16]float64
	p.setSamples("blas4.gemm_ns", scaled(l.time("blas4.Gemm", func() {
		for b := 0; b+1 < batch; b++ {
			blas4.Gemm(blocks[b*16:b*16+16], blocks[b*16+16:b*16+32], cm[:])
		}
	}), 1e9/(batch-1)))
	ok := true
	p.setSamples("blas4.invert_ns", scaled(l.time("blas4.Invert", func() {
		copy(work, blocks)
		for b := 0; b < batch; b++ {
			ok = blas4.Invert(work[b*16:b*16+16]) && ok
		}
	}), 1e9/batch))
	if !ok {
		yv[0] = math.NaN()
	}
	sink += yv[0] + cm[0]
}

// timedOp wraps a GMRES callback (operator or preconditioner) with a
// stopwatch.
type timedOp struct {
	f       func(x, y []float64)
	elapsed time.Duration
}

func (t *timedOp) Apply(x, y []float64) {
	t0 := time.Now()
	t.f(x, y)
	t.elapsed += time.Since(t0)
}

// ladderKrylov runs a benchmark-owned GMRES on the assembled Jacobian
// (BSR.MulVec, threaded when the App is) preconditioned by the App's ASM,
// for exactly one restart cycle per sample; orthogonalization is what the
// wall clock holds beyond the operator and the preconditioner.
func ladderKrylov(p *passResult, l *ladder, app *core.App, a *sparse.BSR, b []float64) error {
	const iters = 30
	mul := a.MulVec
	if app.Pool != nil {
		mul = func(x, y []float64) { a.MulVecPar(app.Pool, x, y) }
	}
	g := krylov.GMRES{Ops: app.Step.Ops}
	x := make([]float64, len(b))
	var iterMs, orthUs []float64
	for s := -ladderWarmups; s < ladderSamples; s++ {
		op, pre := &timedOp{f: mul}, &timedOp{f: app.Pre.Apply}
		for i := range x {
			x[i] = 0
		}
		id := l.tr.begin(l.parent, fmt.Sprintf("krylov.GMRES.Solve[%d]", s))
		t0 := time.Now()
		r, err := g.Solve(op, pre, b, x, krylov.Options{Restart: iters, MaxIters: iters, RelTol: 1e-30, ZeroGuess: true})
		wall := time.Since(t0)
		l.tr.end(id, map[string]any{"iterations": r.Iterations})
		if err != nil {
			return fmt.Errorf("ladder GMRES: %w", err)
		}
		if r.Iterations == 0 {
			return fmt.Errorf("ladder GMRES ran no iterations")
		}
		if s < 0 {
			continue
		}
		iterMs = append(iterMs, float64(wall)/1e6/float64(r.Iterations))
		orthUs = append(orthUs, float64(wall-op.elapsed-pre.elapsed)/1e3/float64(r.Iterations))
	}
	p.setSamples("krylov.iter_ms", iterMs)
	p.setSamples("krylov.orth_us_per_iter", orthUs)
	return nil
}

// ladderOnFreshApp is the ladder of the workloads that do not hold a
// core.App themselves: it builds one on spec under cfg (timing the set-up
// layers), runs the reference solves to RelTol=1e-6 and then the ladder.
// A reference solve that fails its check is fatal: the ladder would time
// kernels on a state that is not a solution.
func ladderOnFreshApp(p *passResult, tr *tracer, parent int, cal *calibration, spec mesh.GenSpec, cfg core.Config, seed uint64) error {
	lid := tr.begin(parent, "ladder.app")
	defer tr.end(lid, map[string]any{"mesh": meshLabel(spec)})
	t0 := time.Now()
	id := tr.begin(lid, "mesh.Generate")
	m0, err := mesh.Generate(spec)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	p.set("mesh.generate_s", time.Since(t0).Seconds())
	t0 = time.Now()
	id = tr.begin(lid, "core.BuildArtifact")
	art, err := core.BuildArtifact(m0, cfg)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	p.set("core.build_artifact_s", time.Since(t0).Seconds())
	t0 = time.Now()
	id = tr.begin(lid, "core.NewAppFromArtifact")
	app, err := core.NewAppFromArtifact(art, cfg)
	tr.end(id, nil)
	if err != nil {
		return err
	}
	defer app.Close()
	p.set("core.new_app_s", time.Since(t0).Seconds())

	opt := newton.Options{RelTol: wingRelTol}
	ref, err := referenceSolves(p, tr, lid, app, opt, cal, func(r core.RunResult, err error) error {
		return checkSolve(app, r, err, wingRelTol, nil, 0)
	})
	if err != nil {
		return fmt.Errorf("ladder reference solve on %s: %w", meshLabel(spec), err)
	}
	return runLadder(p, tr, lid, ladderInput{app: app, m0: m0, seed: seed, ref: ref})
}

// fillAbsent reports 0 for the declared metrics of a layer the workload
// never enters (its counters and modeled shares; the layer's measured
// times are not declared for other workloads, see metricDef.Only).
func fillAbsent(p *passResult, prefix string) {
	for _, d := range declaredPerLayer() {
		if _, ok := p.Metrics[d.Name]; !ok && strings.HasPrefix(d.Name, prefix) {
			p.set(d.Name, 0)
		}
	}
}
