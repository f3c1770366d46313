// Package fun3d is a pure-Go reproduction of the PETSc-FUN3D system studied
// in "Exploring Shared-Memory Optimizations for an Unstructured Mesh CFD
// Application on Modern Parallel Systems" (IPDPS 2015): a vertex-centered
// unstructured tetrahedral mesh solver for the incompressible Euler
// equations (artificial compressibility), driven by pseudo-transient
// Newton-Krylov-Schwarz with matrix-free GMRES and block-ILU
// preconditioning, plus the paper's full shared-memory optimization ladder
// and a virtual-time multi-node simulator.
//
// Quick start:
//
//	m, _ := fun3d.GenerateMesh(fun3d.MeshC())
//	solver, _ := fun3d.NewSolver(m, fun3d.Optimized(8))
//	defer solver.Close()
//	result, _ := solver.Run(fun3d.SolveOptions{MaxSteps: 50})
//	fmt.Println(result.History.Converged, solver.Profile())
//
// The package is a facade over the internal packages; everything here is
// stable API for downstream use.
package fun3d

import (
	"io"

	"fun3d/internal/core"
	"fun3d/internal/export"
	"fun3d/internal/mesh"
	"fun3d/internal/mpisim"
	"fun3d/internal/newton"
	"fun3d/internal/perfmodel"
	"fun3d/internal/prof"
	"fun3d/internal/reorder"
)

// Mesh is an unstructured tetrahedral mesh with vertex-centered
// median-dual metrics.
type Mesh = mesh.Mesh

// MeshSpec configures mesh generation (grid dimensions, wing geometry,
// vertex shuffling).
type MeshSpec = mesh.GenSpec

// WingParams describes the carved wing planform.
type WingParams = mesh.WingParams

// GenerateMesh builds a mesh from spec. Call (*Mesh).Validate to check the
// discrete geometric identities.
func GenerateMesh(spec MeshSpec) (*Mesh, error) { return mesh.Generate(spec) }

// MeshC returns the single-node workload spec (the paper's Mesh-C, scaled).
func MeshC() MeshSpec { return mesh.SpecC() }

// MeshD returns the multi-node workload spec (the paper's Mesh-D, scaled;
// ~8x MeshC, preserving the paper's ratio).
func MeshD() MeshSpec { return mesh.SpecD() }

// MeshTiny returns a small spec for tests and demos.
func MeshTiny() MeshSpec { return mesh.SpecTiny() }

// ScaleMesh returns a spec with roughly f times the vertices of base.
func ScaleMesh(base MeshSpec, f float64) MeshSpec { return mesh.ScaleSpec(base, f) }

// Config selects the solver configuration and optimization level; see
// Baseline and Optimized for the paper's two endpoints.
type Config = core.Config

// Baseline returns the paper's out-of-the-box single-threaded
// configuration.
func Baseline() Config { return core.BaselineConfig() }

// Optimized returns the paper's fully optimized shared-memory
// configuration on the given thread count.
func Optimized(threads int) Config { return core.OptimizedConfig(threads) }

// Ordering selects the vertex reordering applied to the mesh before
// solving (Config.Order): RCM bandwidth reduction or a space-filling
// curve through the vertex coordinates.
type Ordering = reorder.Kind

// The available orderings.
const (
	OrderNatural = reorder.KindNatural
	OrderRCM     = reorder.KindRCM
	OrderMorton  = reorder.KindMorton
	OrderHilbert = reorder.KindHilbert
)

// ParseOrdering parses "natural", "rcm", "morton" or "hilbert".
func ParseOrdering(s string) (Ordering, error) { return reorder.ParseKind(s) }

// OrderingStats reports an applied ordering's bandwidth/profile change.
type OrderingStats = core.OrderStats

// ReorderMesh applies an ordering to a mesh (for pre-decomposition
// reordering outside a Solver, e.g. cluster simulations) and reports the
// locality metrics achieved. The returned permutation is nil for natural
// order.
func ReorderMesh(m *Mesh, kind Ordering) (*Mesh, []int32, OrderingStats, error) {
	return core.ReorderMesh(m, kind)
}

// SolveOptions controls the pseudo-transient Newton iteration.
type SolveOptions = newton.Options

// RunResult reports a solve (history + wall time).
type RunResult = core.RunResult

// SurfaceSample is one wall-vertex pressure coefficient.
type SurfaceSample = core.SurfaceSample

// Solver is a configured solver instance bound to a mesh.
type Solver struct {
	app *core.App
}

// NewSolver builds a solver for mesh m under cfg.
func NewSolver(m *Mesh, cfg Config) (*Solver, error) {
	app, err := core.NewApp(m, cfg)
	if err != nil {
		return nil, err
	}
	return &Solver{app: app}, nil
}

// Artifact is the immutable, shareable part of a solver: mesh, median-dual
// geometry, reordering permutation, partition, tile cover, and Jacobian
// sparsity, built once. Any number of Solvers (including concurrent ones)
// can be constructed over one Artifact; only their mutable state is
// per-instance. The multi-solve service (internal/service, cmd/fun3dd)
// caches these by spec.
type Artifact = core.Artifact

// BuildArtifact precomputes the immutable solver artifact for mesh m under
// cfg's structural fields (ordering, threads, strategy, partition seed,
// fused tiling).
func BuildArtifact(m *Mesh, cfg Config) (*Artifact, error) {
	return core.BuildArtifact(m, cfg)
}

// NewSolverFromArtifact builds a solver over a shared prebuilt artifact.
// cfg's structural fields must match the ones the artifact was built with
// (flow parameters — alpha, beta, CFL — are free); a solver built this way
// behaves bit-identically to one built by NewSolver.
func NewSolverFromArtifact(art *Artifact, cfg Config) (*Solver, error) {
	app, err := core.NewAppFromArtifact(art, cfg)
	if err != nil {
		return nil, err
	}
	return &Solver{app: app}, nil
}

// ErrClosed is returned by Run when the solver has been closed.
var ErrClosed = core.ErrClosed

// Run drives the solver to convergence (or opt.MaxSteps). Run returns
// ErrClosed after Close; a Close issued during a Run waits for the solve
// to finish. Cancel a long solve with SolveOptions.Ctx.
func (s *Solver) Run(opt SolveOptions) (RunResult, error) { return s.app.Run(opt) }

// Reset restores the freestream initial condition.
func (s *Solver) Reset() { s.app.ResetState() }

// State returns the current state vector in the original mesh vertex
// numbering, 4 unknowns (p,u,v,w) per vertex.
func (s *Solver) State() []float64 { return s.app.StateOriginalOrder() }

// SurfacePressure extracts the wall-surface pressure coefficients.
func (s *Solver) SurfacePressure() []SurfaceSample { return s.app.SurfacePressure() }

// Forces holds integrated aerodynamic loads (lift/drag coefficients).
type Forces = core.Forces

// SurfaceForces integrates the wall pressure into force coefficients;
// sref <= 0 estimates the reference area from the wing planform.
func (s *Solver) SurfaceForces(sref float64) Forces { return s.app.SurfaceForces(sref) }

// WriteVTK writes the mesh and current state as a legacy-ASCII VTK
// unstructured grid (ParaView/VisIt).
func (s *Solver) WriteVTK(w io.Writer) error {
	return export.VTK(w, s.app.Mesh, s.app.Q)
}

// SaveState writes a solution checkpoint (portable across solver
// configurations on the same mesh).
func (s *Solver) SaveState(w io.Writer) error { return s.app.SaveState(w) }

// LoadState restores a checkpoint written by SaveState. If the checkpoint
// was written at different flow parameters, the state is still loaded, the
// checkpoint's parameters are adopted, and a *ParamMismatchError is
// returned as a warning (detect with errors.As).
func (s *Solver) LoadState(r io.Reader) error { return s.app.LoadState(r) }

// ParamMismatchError is the warning LoadState returns when a checkpoint's
// flow parameters differ from the solver's configuration.
type ParamMismatchError = core.ParamMismatchError

// Profile returns the per-kernel time breakdown accumulated so far.
func (s *Solver) Profile() *prof.Metrics { return s.app.Prof }

// Describe summarizes the active configuration.
func (s *Solver) Describe() string { return s.app.Describe() }

// OrderingStats reports the vertex ordering this solver applied and the
// bandwidth/profile improvement achieved.
func (s *Solver) OrderingStats() OrderingStats { return s.app.Order }

// Close releases the solver's worker pool. It is idempotent and safe to
// call concurrently, including while a Run is in flight: the close waits
// for the solve, and any Run entered afterwards fails with ErrClosed.
func (s *Solver) Close() { s.app.Close() }

// ClusterConfig describes a simulated multi-node run (rank count, kernel
// rates, network model).
type ClusterConfig = mpisim.Config

// ClusterResult reports a simulated multi-node run: real convergence
// counts, modeled time, and the communication breakdown.
type ClusterResult = mpisim.Result

// Network is the LogGP-style interconnect model.
type Network = perfmodel.Network

// AllreduceAlgo selects the collective cost model of a Network.
type AllreduceAlgo = perfmodel.AllreduceAlgo

// Allreduce cost models: recursive-doubling tree (the MPI default), the
// flat linear gather+broadcast the paper's scaling discussion warns about,
// and the SMP-aware hierarchical algorithm (shared-memory intra-node
// reduction + inter-node recursive doubling over node leaders).
const (
	AllreduceTree = perfmodel.AllreduceTree
	AllreduceFlat = perfmodel.AllreduceFlat
	AllreduceHier = perfmodel.AllreduceHier
)

// ParseAllreduce parses "tree", "flat" or "hierarchical".
func ParseAllreduce(s string) (AllreduceAlgo, error) { return perfmodel.ParseAllreduce(s) }

// Topology selects a Network's interconnect hop model.
type Topology = perfmodel.Topology

// The available topologies: hop-blind flat crossbar, two-level fat-tree
// (leaf/spine pods), and dragonfly groups with all-to-all global links.
const (
	TopoFlat      = perfmodel.TopoFlat
	TopoFatTree   = perfmodel.TopoFatTree
	TopoDragonfly = perfmodel.TopoDragonfly
)

// ParseTopology parses "flat", "fattree"/"fat-tree" or "dragonfly".
func ParseTopology(s string) (Topology, error) { return perfmodel.ParseTopology(s) }

// Placement selects how ranks map to nodes: contiguous blocks, round-robin,
// or the graph-driven locality mapping (an explicit rank->node table built
// from the decomposition's halo traffic graph).
type Placement = perfmodel.Placement

// The available rank placements.
const (
	PlaceBlock      = perfmodel.PlaceBlock
	PlaceRoundRobin = perfmodel.PlaceRoundRobin
	PlaceLocality   = perfmodel.PlaceLocality
)

// ParsePlacement parses "block", "roundrobin"/"rr" or "locality".
func ParsePlacement(s string) (Placement, error) { return perfmodel.ParsePlacement(s) }

// CollectiveCost is a modeled collective's cost breakdown: seconds plus the
// structural stage and switch-hop counts (exact functions of algorithm,
// topology, placement, and rank count).
type CollectiveCost = perfmodel.CollectiveCost

// KernelRates are calibrated per-unit kernel costs.
type KernelRates = perfmodel.Rates

// StampedeNetwork returns fabric parameters approximating the paper's
// TACC Stampede system.
func StampedeNetwork() Network { return perfmodel.Stampede() }

// StampedeFatTreeNetwork is StampedeNetwork with the fabric's fat-tree
// topology made explicit: 16-node leaf pods and a per-hop latency, so
// cross-pod stages cost more than neighbor stages.
func StampedeFatTreeNetwork() Network { return perfmodel.StampedeFatTree() }

// MeasureRates calibrates kernel rates by running the real kernels on m.
func MeasureRates(m *Mesh, threads int, optimized bool) (KernelRates, error) {
	return perfmodel.Measure(m, threads, optimized)
}

// SimulateCluster runs the distributed NKS solver over cfg.Ranks simulated
// ranks: the numerics (halo exchanges, rank-local ILU, Allreduce inner
// products) execute for real; time is virtual, driven by cfg.Rates and
// cfg.Net.
func SimulateCluster(m *Mesh, cfg ClusterConfig) (ClusterResult, error) {
	return mpisim.Solve(m, cfg)
}

// ClusterSpec pins the structural inputs a ClusterArtifact is built from
// (rank count, partitioner, ILU fill level, seed).
type ClusterSpec = mpisim.ClusterSpec

// ClusterArtifact is the immutable, shareable part of a simulated cluster
// run: the decomposition plus every rank's local mesh, Jacobian sparsity,
// and symbolic ILU template. Build it once per rank count and run any
// number of (possibly concurrent) SimulateClusterArtifact sweeps over it —
// the artifact is the expensive part of SimulateCluster at scale.
type ClusterArtifact = mpisim.Artifact

// BuildClusterArtifact decomposes m per spec and precomputes every rank's
// structural state.
func BuildClusterArtifact(m *Mesh, spec ClusterSpec) (*ClusterArtifact, error) {
	return mpisim.BuildArtifact(m, spec)
}

// SimulateClusterArtifact runs one simulated cluster solve over a prebuilt
// artifact. cfg's structural fields must match the artifact's spec;
// results are bit-identical to SimulateCluster on the same mesh and config.
func SimulateClusterArtifact(art *ClusterArtifact, cfg ClusterConfig) (ClusterResult, error) {
	return mpisim.SolveArtifact(art, cfg)
}
