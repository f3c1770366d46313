package prof

import (
	"fmt"
	"sync/atomic"
)

// Counter identifies a monotonically increasing work counter. Where a
// Kernel measures time, a Counter measures work done — edges swept, BSR
// blocks eliminated, collectives issued — so derived rates (edges/s,
// blocks/s, bytes/collective) fall out of a Metrics without re-deriving
// them from mesh sizes at report time.
type Counter int

const (
	// FluxEdges counts edges swept by residual evaluations.
	FluxEdges Counter = iota
	// GradEdges counts edges swept by gradient/limiter evaluations.
	GradEdges
	// JacEdges counts edges swept by Jacobian assembly.
	JacEdges
	// ILUBlocks counts BSR blocks processed by numeric factorization.
	ILUBlocks
	// TRSVBlocks counts BSR blocks processed by triangular solves.
	TRSVBlocks
	// VecElems counts vector elements touched by the Vec* primitives.
	VecElems
	// AllreduceCalls counts global collectives (the Fig 10 driver).
	AllreduceCalls
	// AllreduceBytes counts payload bytes reduced across ranks.
	AllreduceBytes
	// HaloMsgs counts point-to-point halo messages sent.
	HaloMsgs
	// HaloBytes counts point-to-point payload bytes sent.
	HaloBytes
	// GMRESIters counts linear (Krylov) iterations.
	GMRESIters
	// NewtonSteps counts nonlinear pseudo-time steps.
	NewtonSteps
	// KrylovAllreduceCalls counts the collectives issued inside GMRES
	// solves only (a subset of AllreduceCalls): divided by GMRESIters it
	// is the collectives-per-iteration figure the pipelined variant drives
	// to one, and what benchdiff gates on.
	KrylovAllreduceCalls
	// KrylovAllreduceBytes counts the payload bytes of those collectives.
	KrylovAllreduceBytes
	// ResidualSweeps counts full mesh sweeps spent per residual pipeline:
	// the fused cache-blocked path charges 1 per evaluation, the unfused
	// path 1 each for gradient, limiter, and flux.
	ResidualSweeps
	// ServiceJobs counts solve jobs completed by the multi-solve server;
	// divided by the Service kernel's seconds it is the jobs/sec
	// throughput figure.
	ServiceJobs
	// ServiceSolveSteps counts pseudo-time steps executed inside service
	// jobs; divided by ServiceJobs it is the deterministic steps-per-job
	// figure benchdiff gates on (fixed MaxSteps batches make it exact).
	ServiceSolveSteps
	// ILURows counts block rows eliminated by numeric factorizations; the
	// ILU kernel's modeled bytes divided by it is the ilu_bytes_per_row
	// rate benchdiff gates on (both sides deterministic, like
	// residual_bytes_per_edge).
	ILURows
	// StagedEdges counts edges swept by the staged hierarchical residual
	// pipeline (a subset of FluxEdges).
	StagedEdges
	// StagedGatherBytes counts the staged pipeline's modeled gather-side
	// traffic: staging-buffer fills plus halo-gradient edge reads.
	StagedGatherBytes
	// StagedScatterBytes counts the staged pipeline's modeled scatter-side
	// traffic: phi publication, closed-residual stores, the span flux
	// buffer, and the phase-B application. (Gather+scatter)/StagedEdges is
	// the tile_staged_bytes_per_edge rate benchdiff gates on — both sides
	// deterministic functions of the tiling.
	StagedScatterBytes
	// CollectiveStages counts the message stages executed by the simulated
	// collectives (intra- plus inter-node; see
	// perfmodel.CollectiveCost.Stages). Divided by AllreduceCalls it is the
	// stages-per-collective figure benchdiff gates on — an exact function
	// of (algorithm, topology, placement, rank count).
	CollectiveStages
	// CollectiveHops counts the switch hops traversed by the simulated
	// collectives' inter-node stages (perfmodel.CollectiveCost.Hops).
	CollectiveHops
	// PtPHops counts the switch hops traversed by point-to-point halo
	// messages (perfmodel.Route.Hops, booked by the receiver). Divided by
	// HaloMsgs it is the ptp_hops_per_message figure benchdiff gates on —
	// an exact function of (decomposition, placement, topology).
	PtPHops
	// PtPCrossNodeBytes counts the halo payload bytes whose endpoints sat
	// on different nodes (a subset of HaloBytes).
	PtPCrossNodeBytes
	// PtPCrossPodBytes counts the halo payload bytes whose endpoints sat
	// in different pods/groups (a subset of PtPCrossNodeBytes) — the
	// volume locality placement minimizes.
	PtPCrossPodBytes
	numCounters
)

func (c Counter) String() string {
	switch c {
	case FluxEdges:
		return "flux_edges"
	case GradEdges:
		return "grad_edges"
	case JacEdges:
		return "jac_edges"
	case ILUBlocks:
		return "ilu_blocks"
	case TRSVBlocks:
		return "trsv_blocks"
	case VecElems:
		return "vec_elems"
	case AllreduceCalls:
		return "allreduce_calls"
	case AllreduceBytes:
		return "allreduce_bytes"
	case HaloMsgs:
		return "halo_msgs"
	case HaloBytes:
		return "halo_bytes"
	case GMRESIters:
		return "gmres_iters"
	case NewtonSteps:
		return "newton_steps"
	case KrylovAllreduceCalls:
		return "krylov_allreduce_calls"
	case KrylovAllreduceBytes:
		return "krylov_allreduce_bytes"
	case ResidualSweeps:
		return "residual_sweeps"
	case ServiceJobs:
		return "service_jobs"
	case ServiceSolveSteps:
		return "service_solve_steps"
	case ILURows:
		return "ilu_rows"
	case StagedEdges:
		return "staged_edges"
	case StagedGatherBytes:
		return "staged_gather_bytes"
	case StagedScatterBytes:
		return "staged_scatter_bytes"
	case CollectiveStages:
		return "collective_stages"
	case CollectiveHops:
		return "collective_hops"
	case PtPHops:
		return "ptp_hops"
	case PtPCrossNodeBytes:
		return "ptp_cross_node_bytes"
	case PtPCrossPodBytes:
		return "ptp_cross_pod_bytes"
	}
	return fmt.Sprintf("Counter(%d)", int(c))
}

// AllCounters lists every counter in declaration order.
func AllCounters() []Counter {
	out := make([]Counter, numCounters)
	for i := range out {
		out[i] = Counter(i)
	}
	return out
}

// Metrics is a Profile plus work counters: the full per-kernel record one
// solver instance (or one simulated rank) accumulates. Like Profile, all
// mutation is atomic and a Metrics must not be copied after first use.
// All methods are nil-receiver safe.
type Metrics struct {
	Profile
	counters [numCounters]atomic.Int64
}

// Inc adds n to counter c. Safe for concurrent use.
func (m *Metrics) Inc(c Counter, n int64) {
	if m == nil {
		return
	}
	m.counters[c].Add(n)
}

// Counter returns the current value of c.
func (m *Metrics) Counter(c Counter) int64 {
	if m == nil {
		return 0
	}
	return m.counters[c].Load()
}

// P returns the embedded Profile, or nil for a nil Metrics — the nil-safe
// way to hand a possibly-nil *Metrics to code expecting a *Profile.
func (m *Metrics) P() *Profile {
	if m == nil {
		return nil
	}
	return &m.Profile
}

// Merge accumulates src's timers and counters into m (per-rank shards
// merged on read).
func (m *Metrics) Merge(src *Metrics) {
	if m == nil || src == nil {
		return
	}
	m.Profile.Merge(&src.Profile)
	for c := Counter(0); c < numCounters; c++ {
		m.counters[c].Add(src.counters[c].Load())
	}
}

// Reset zeroes timers and counters.
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.Profile.Reset()
	for c := Counter(0); c < numCounters; c++ {
		m.counters[c].Store(0)
	}
}

// CountersMap exports all non-zero counters keyed by name — the JSON
// artifact's `counters` section.
func (m *Metrics) CountersMap() map[string]int64 {
	out := make(map[string]int64)
	if m == nil {
		return out
	}
	for c := Counter(0); c < numCounters; c++ {
		if v := m.counters[c].Load(); v != 0 {
			out[c.String()] = v
		}
	}
	return out
}

// Rate returns counter c per second of kernel k (e.g. edges/s of the flux
// kernel); 0 when no time was recorded.
func (m *Metrics) Rate(c Counter, k Kernel) float64 {
	if m == nil {
		return 0
	}
	s := m.Total(k).Seconds()
	if s == 0 {
		return 0
	}
	return float64(m.Counter(c)) / s
}
