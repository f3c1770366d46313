package main

// Kind tags. Only measured numbers may ever back a performance claim;
// counted numbers must repeat bit-for-bit for a fixed seed; computed
// numbers come from a model (virtual seconds, byte estimates, projections).
const (
	kindMeasured = "m" // host wall clock, memory
	kindCounted  = "c" // exact work counters
	kindComputed = "x" // modeled or derived from a model
)

// The four workloads, in the order the full run executes them.
const (
	wlWingO1  = "wing-o1-seq"
	wlWingO2  = "wing-o2-par"
	wlService = "service-polar"
	wlCluster = "cluster-256"
)

var workloadNames = []string{wlWingO1, wlWingO2, wlService, wlCluster}

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Kind   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the base
	// Only names the one workload a layer metric is measured on; empty
	// means every workload. A metric with an Only has no honest value on
	// the other workloads, so it is printed and stored in the result set
	// but not declared in BENCHMARK.json (whose per-layer metrics must all
	// appear in every traced run).
	Only string
}

// endToEnd is what a user of the system sees. One "operation" is the unit
// of work a client waits for: a whole solve (wing-*), a fun3dd job from
// POST to the final history line (service-polar), one simulated cluster
// solve (cluster-256). The names of issue 11 map onto these as
//
//	solve_s     = op_p50_ms/1000 on wing-o1-seq and wing-o2-par
//	job_p50_ms  = op_p50_ms      on service-polar
//	job_p95_ms  = op_p95_ms      on service-polar
//	jobs_per_s  = ops_per_s      on service-polar
//	sim_host_s  = op_p50_ms/1000 on cluster-256
//	fail_share  = failed/attempted (top-level keys of the result line)
//
// because every declared end-to-end metric has to be reported, and be
// non-zero, on every workload.
//
// The bounds are three times the widest spread (quartile distance over
// median) seen across ten seeds on the reference host. Most of that spread
// is input, not noise: another vertex numbering moves a wing solve by one
// linear iteration in fifty, which is 2 %.
var endToEnd = []metricDef{
	{Name: "op_p50_ms", Unit: "ms", Kind: kindMeasured, Better: "lower", Bound: 0.08},
	{Name: "op_p95_ms", Unit: "ms", Kind: kindMeasured, Better: "lower", Bound: 0.10},
	{Name: "ops_per_s", Unit: "1/s", Kind: kindMeasured, Better: "higher", Bound: 0.08},
	{Name: "setup_s", Unit: "s", Kind: kindMeasured, Better: "lower", Bound: 0.20},
	{Name: "live_heap_mb", Unit: "MB", Kind: kindMeasured, Better: "lower", Bound: 0.05},
}

// issueAlias is the issue-11 name of an end-to-end metric on a workload,
// with the factor that converts the reported value into the alias's unit.
func issueAlias(metric, workload string) (name string, factor float64, unit string) {
	switch {
	case metric == "op_p50_ms" && (workload == wlWingO1 || workload == wlWingO2):
		return "solve_s", 1e-3, "s"
	case metric == "op_p50_ms" && workload == wlCluster:
		return "sim_host_s", 1e-3, "s"
	case metric == "op_p50_ms" && workload == wlService:
		return "job_p50_ms", 1, "ms"
	case metric == "op_p95_ms" && workload == wlService:
		return "job_p95_ms", 1, "ms"
	case metric == "ops_per_s" && workload == wlService:
		return "jobs_per_s", 1, "1/s"
	}
	return "", 0, ""
}

// perLayer is the ladder: one block per module, bottom-up. The README's
// layer table says which end-to-end metric each block should move.
var perLayer = []metricDef{
	// host: harness calibration, the denominator of every *_gb_s.
	{Name: "host.nproc", Unit: "count", Kind: kindCounted, Better: "higher"},
	{Name: "host.llc_mb", Unit: "MB", Kind: kindCounted, Better: "higher"},
	{Name: "host.triad_gb_s", Unit: "GB/s", Kind: kindMeasured, Better: "higher"},
	{Name: "host.drift_pct", Unit: "%", Kind: kindMeasured, Better: "lower"},

	// mesh / reorder / partition / tile / core: set-up.
	{Name: "mesh.generate_s", Unit: "s", Kind: kindMeasured, Better: "lower"},
	{Name: "mesh.vertices", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "mesh.edges", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "reorder.rcm_s", Unit: "s", Kind: kindMeasured, Better: "lower"},
	{Name: "reorder.bandwidth", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "partition.build_s", Unit: "s", Kind: kindMeasured, Better: "lower"},
	{Name: "partition.replication_pct", Unit: "%", Kind: kindCounted, Better: "lower"},
	{Name: "tile.build_s", Unit: "s", Kind: kindMeasured, Better: "lower"},
	{Name: "core.build_artifact_s", Unit: "s", Kind: kindMeasured, Better: "lower"},
	{Name: "core.new_app_s", Unit: "s", Kind: kindMeasured, Better: "lower"},
	{Name: "core.first_solve_s", Unit: "s", Kind: kindMeasured, Better: "lower"},
	{Name: "core.peak_rss_mb", Unit: "MB", Kind: kindMeasured, Better: "lower"},

	// physics: the innermost call of every edge loop.
	{Name: "physics.roeflux_ns", Unit: "ns", Kind: kindMeasured, Better: "lower"},
	{Name: "physics.roeflux_jac_ns", Unit: "ns", Kind: kindMeasured, Better: "lower"},

	// flux: the edge kernels.
	{Name: "flux.residual_o1_ns_per_edge", Unit: "ns/edge", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.gradient_ns_per_edge", Unit: "ns/edge", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.limiter_ns_per_vertex", Unit: "ns/vertex", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.residual_o2_ns_per_edge", Unit: "ns/edge", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.residual_3sweep_ns_per_edge", Unit: "ns/edge", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.residual_fused_ns_per_edge", Unit: "ns/edge", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.residual_staged_ns_per_edge", Unit: "ns/edge", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.jacobian_ns_per_edge", Unit: "ns/edge", Kind: kindMeasured, Better: "lower"},
	{Name: "flux.residual_o1_gb_s", Unit: "GB/s", Kind: kindComputed, Better: "higher"},
	{Name: "flux.residual_3sweep_gb_s", Unit: "GB/s", Kind: kindComputed, Better: "higher"},
	{Name: "flux.par_eff_residual", Unit: "ratio", Kind: kindMeasured, Better: "higher"},
	{Name: "flux.par_eff_jacobian", Unit: "ratio", Kind: kindMeasured, Better: "higher"},
	{Name: "flux.solve_share_pct", Unit: "%", Kind: kindMeasured, Better: "lower"},

	// precond / sparse / blas4: the sparse recurrences.
	{Name: "precond.factorize_ns_per_block", Unit: "ns/block", Kind: kindMeasured, Better: "lower"},
	{Name: "precond.apply_ns_per_block", Unit: "ns/block", Kind: kindMeasured, Better: "lower"},
	{Name: "precond.apply_gb_s", Unit: "GB/s", Kind: kindComputed, Better: "higher"},
	{Name: "precond.nnz_blocks", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "precond.parallelism", Unit: "ratio", Kind: kindCounted, Better: "higher"},
	{Name: "precond.par_eff_factorize", Unit: "ratio", Kind: kindMeasured, Better: "higher"},
	{Name: "precond.par_eff_apply", Unit: "ratio", Kind: kindMeasured, Better: "higher"},
	{Name: "precond.solve_share_pct", Unit: "%", Kind: kindMeasured, Better: "lower"},
	{Name: "blas4.gemv_ns", Unit: "ns", Kind: kindMeasured, Better: "lower"},
	{Name: "blas4.gemm_ns", Unit: "ns", Kind: kindMeasured, Better: "lower"},
	{Name: "blas4.invert_ns", Unit: "ns", Kind: kindMeasured, Better: "lower"},

	// vecop / par: vector primitives and the fork-join runtime.
	{Name: "vecop.dot_ns_per_elem", Unit: "ns/elem", Kind: kindMeasured, Better: "lower"},
	{Name: "vecop.axpy_ns_per_elem", Unit: "ns/elem", Kind: kindMeasured, Better: "lower"},
	{Name: "vecop.maxpy_ns_per_elem", Unit: "ns/elem", Kind: kindMeasured, Better: "lower"},
	{Name: "vecop.mdotnorm_ns_per_elem", Unit: "ns/elem", Kind: kindMeasured, Better: "lower"},
	{Name: "par.run_ns", Unit: "ns", Kind: kindMeasured, Better: "lower"},
	{Name: "par.parallelfor_ns", Unit: "ns", Kind: kindMeasured, Better: "lower"},

	// krylov: one GMRES iteration.
	{Name: "krylov.linear_iters", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "krylov.iters_per_step", Unit: "ratio", Kind: kindCounted, Better: "lower"},
	{Name: "krylov.iter_ms", Unit: "ms", Kind: kindMeasured, Better: "lower"},
	{Name: "krylov.orth_us_per_iter", Unit: "us", Kind: kindMeasured, Better: "lower"},

	// newton / prof: closing the books on one solve.
	{Name: "newton.steps", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "newton.step_ms_p50", Unit: "ms", Kind: kindMeasured, Better: "lower"},
	{Name: "newton.step_ms_max", Unit: "ms", Kind: kindMeasured, Better: "lower"},
	{Name: "newton.prof_residue_pct", Unit: "%", Kind: kindMeasured, Better: "lower"},
	{Name: "newton.ladder_residue_pct", Unit: "%", Kind: kindMeasured, Better: "lower"},
	{Name: "prof.trace_overhead_pct", Unit: "%", Kind: kindMeasured, Better: "lower"},

	// perfmodel: validate the projection, do not trust it.
	{Name: "perfmodel.flux_speedup_pred", Unit: "ratio", Kind: kindComputed, Better: "higher"},
	{Name: "perfmodel.flux_speedup_err_pct", Unit: "%", Kind: kindMeasured, Better: "lower"},

	// service: where a job's latency goes. The counters read 0 elsewhere.
	{Name: "service.queue_wait_p50_ms", Unit: "ms", Kind: kindMeasured, Better: "lower", Only: wlService},
	{Name: "service.queue_wait_p95_ms", Unit: "ms", Kind: kindMeasured, Better: "lower", Only: wlService},
	{Name: "service.solve_p50_ms", Unit: "ms", Kind: kindMeasured, Better: "lower", Only: wlService},
	{Name: "service.overhead_p50_ms", Unit: "ms", Kind: kindMeasured, Better: "lower", Only: wlService},
	{Name: "service.cache_builds", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "service.cache_hits", Unit: "count", Kind: kindCounted, Better: "higher"},
	{Name: "service.pool_builds", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "service.pool_gets", Unit: "count", Kind: kindCounted, Better: "higher"},
	{Name: "service.rejected", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "service.steps_per_job", Unit: "ratio", Kind: kindCounted, Better: "lower"},

	// mpisim: host cost of the simulator. The counters read 0 elsewhere.
	{Name: "mpisim.build_artifact_s", Unit: "s", Kind: kindMeasured, Better: "lower", Only: wlCluster},
	{Name: "mpisim.host_us_per_rank_step", Unit: "us", Kind: kindMeasured, Better: "lower", Only: wlCluster},
	{Name: "mpisim.host_ms_per_gmres_iter", Unit: "ms", Kind: kindMeasured, Better: "lower", Only: wlCluster},
	{Name: "mpisim.virtual_s", Unit: "virt_s", Kind: kindComputed, Better: "lower"},
	{Name: "mpisim.allreduce_share_pct", Unit: "%", Kind: kindComputed, Better: "lower"},
	{Name: "mpisim.ptp_share_pct", Unit: "%", Kind: kindComputed, Better: "lower"},
	{Name: "mpisim.steps", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "mpisim.linear_iters", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "mpisim.msgs", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "mpisim.halo_bytes", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "mpisim.allreduces", Unit: "count", Kind: kindCounted, Better: "lower"},
	{Name: "mpisim.stages_per_allreduce", Unit: "ratio", Kind: kindCounted, Better: "lower"},
}

// declaredPerLayer are the per-layer metrics BENCHMARK.json lists: the ones
// with a value on every workload.
func declaredPerLayer() []metricDef {
	var out []metricDef
	for _, d := range perLayer {
		if d.Only == "" {
			out = append(out, d)
		}
	}
	return out
}

// scheduleDependent names the counted metrics exempt from the bit-identity
// check: which worker builds a pooled instance first is a scheduling race
// once a service engine has more than one worker.
var scheduleDependent = map[string]bool{"service.pool_builds": true}

// lookupMetric finds a metric definition by name in either list.
func lookupMetric(name string) (metricDef, bool) {
	for _, d := range endToEnd {
		if d.Name == name {
			return d, true
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
