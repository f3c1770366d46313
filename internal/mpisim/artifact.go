package mpisim

import (
	"fmt"

	"fun3d/internal/mesh"
	"fun3d/internal/sparse"
)

// ClusterSpec pins the structural inputs an Artifact is built from: the
// decomposition (rank count, partitioner, seed) and the per-rank symbolic
// ILU level. Runs over one artifact may vary everything else — rates,
// network model, collective algorithm, GMRES variant, overlap, faults —
// because none of those touch the decomposition or the sparsity structure.
type ClusterSpec struct {
	Ranks     int
	Natural   bool
	FillLevel int
	Seed      uint64
}

// specOf extracts the structural spec a config implies.
func specOf(cfg *Config) ClusterSpec {
	return ClusterSpec{
		Ranks:     cfg.Ranks,
		Natural:   cfg.Natural,
		FillLevel: cfg.FillLevel,
		Seed:      cfg.Seed,
	}
}

// Artifact is the immutable, shareable part of a simulated cluster run:
// the decomposition, each subdomain materialized as a local mesh, and each
// rank's Jacobian sparsity plus symbolic ILU factor template. Building it
// is the expensive part of Solve at scale — the multilevel partition alone
// costs ~25 s at 16384 ranks — and none of it depends on the run
// configuration beyond ClusterSpec, so a sweep reuses one Artifact across
// every run at a given rank count.
// Workers share the read-only structure and clone only the value arrays
// (sparse.BSR.CloneStructure / sparse.Factor.CloneStructure), which is
// what keeps per-rank memory flat enough for 10k+ rank runs.
type Artifact struct {
	Spec ClusterSpec
	Subs []*Subdomain

	// Per-rank read-only templates: the subdomain as a standalone mesh
	// (aliases the subdomain's arrays), the owned-rows Jacobian pattern,
	// and the symbolic ILU factor with its precomputed update schedule.
	locals  []*mesh.Mesh
	jacTmpl []*sparse.BSR
	facTmpl []*sparse.Factor
}

// BuildArtifact decomposes m per spec and precomputes every rank's
// structural state. The result is read-only and safe for concurrent
// SolveArtifact calls over it.
func BuildArtifact(m *mesh.Mesh, spec ClusterSpec) (*Artifact, error) {
	subs, err := Decompose(m, spec.Ranks, spec.Natural, spec.Seed)
	if err != nil {
		return nil, err
	}
	art := &Artifact{
		Spec:    spec,
		Subs:    subs,
		locals:  make([]*mesh.Mesh, len(subs)),
		jacTmpl: make([]*sparse.BSR, len(subs)),
		facTmpl: make([]*sparse.Factor, len(subs)),
	}
	for r, sub := range subs {
		art.locals[r] = sub.LocalMesh()
		jac, err := sparse.NewBSRFromPattern(sub.JacRows)
		if err != nil {
			return nil, err
		}
		pat, err := sparse.SymbolicILU(jac, spec.FillLevel)
		if err != nil {
			return nil, err
		}
		fac, err := sparse.NewFactorPattern(pat)
		if err != nil {
			return nil, err
		}
		art.jacTmpl[r] = jac
		art.facTmpl[r] = fac
	}
	return art, nil
}

// SolveArtifact runs one simulated cluster solve over a prebuilt artifact.
// cfg's structural fields (Ranks, Natural, FillLevel, Seed) must match the
// artifact's spec; everything else is free. Results are bit-identical to
// Solve on the same mesh and config — Solve is exactly BuildArtifact
// followed by SolveArtifact.
func SolveArtifact(art *Artifact, cfg Config) (Result, error) {
	cfg.defaults()
	if got := specOf(&cfg); got != art.Spec {
		return Result{}, fmt.Errorf("mpisim: config spec %+v does not match artifact spec %+v", got, art.Spec)
	}
	return solve(art, cfg)
}
