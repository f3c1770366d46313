package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"fun3d/internal/core"
)

// reference.json pins the converged lift and drag of the two wing
// workloads. Only a benchmark-archetype change may regenerate it
// (-write-reference); a change to the solver that moves C_L or C_D beyond
// the tolerance has changed the answer, not just the speed.
//
//go:embed reference.json
var referenceJSON []byte

const referencePath = "benchmark/reference.json"

type refEntry struct {
	Mesh     string  `json:"mesh"`
	AlphaDeg float64 `json:"alpha_deg"`
	CL       float64 `json:"cl"`
	CD       float64 `json:"cd"`
}

type referenceFile struct {
	Note string `json:"note"`
	// Tolerance is relative. It is loose enough that a documented
	// reassociation of the flux arithmetic, another vertex numbering
	// (-seed) or another thread count passes without a benchmark edit,
	// and tight enough that a wrong flux does not.
	Tolerance float64             `json:"tolerance"`
	Entries   map[string]refEntry `json:"entries"`
}

func loadReference() (referenceFile, error) {
	var rf referenceFile
	if err := json.Unmarshal(referenceJSON, &rf); err != nil {
		return rf, fmt.Errorf("reference.json: %w", err)
	}
	return rf, nil
}

// lookup returns the entry for a workload on a mesh, or nil when the
// reference does not cover that mesh (the smoke tests' tiny meshes).
func (rf referenceFile) lookup(workload, meshName string) *refEntry {
	e, ok := rf.Entries[workload]
	if !ok || e.Mesh != meshName {
		return nil
	}
	return &e
}

func relDiff(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// checkSolve is the output check of one wing solve: it ran, converged,
// reduced the residual by the requested factor, and its integrated forces
// match the reference.
func checkSolve(app *core.App, r core.RunResult, err error, relTol float64, ref *refEntry, tol float64) error {
	switch {
	case err != nil:
		return fmt.Errorf("solve: %w", err)
	case !r.History.Converged:
		return fmt.Errorf("solve did not converge: ||R|| %g -> %g in %d steps", r.History.RNorm0, r.History.RNormFinal, len(r.History.Steps))
	case !(r.History.RNormFinal <= relTol*r.History.RNorm0):
		return fmt.Errorf("residual %g above %g x %g", r.History.RNormFinal, relTol, r.History.RNorm0)
	}
	f := app.SurfaceForces(0)
	if math.IsNaN(f.CL) || math.IsNaN(f.CD) || math.IsInf(f.CL, 0) || math.IsInf(f.CD, 0) {
		return fmt.Errorf("forces not finite: CL=%g CD=%g", f.CL, f.CD)
	}
	if ref != nil {
		if d := relDiff(f.CL, ref.CL); d > tol {
			return fmt.Errorf("CL %.9g differs from reference %.9g by %.2e (tolerance %.0e)", f.CL, ref.CL, d, tol)
		}
		if d := relDiff(f.CD, ref.CD); d > tol {
			return fmt.Errorf("CD %.9g differs from reference %.9g by %.2e (tolerance %.0e)", f.CD, ref.CD, d, tol)
		}
	}
	return nil
}

// writeReference solves both wing workloads on full Mesh-C' and rewrites
// reference.json. The binary embeds the file, so rebuild afterwards.
func writeReference(seed uint64) error {
	sz := fullSizing(0)
	rf := referenceFile{
		Note:      "Converged C_L/C_D of the wing workloads on Mesh-C' (seed 42). Regenerate only in a benchmark-archetype change: bash benchmark/run.sh -write-reference",
		Tolerance: 1e-4,
		Entries:   map[string]refEntry{},
	}
	for _, name := range []string{wlWingO1, wlWingO2} {
		inst, err := buildWing(name, sz.Wing, seed, nil, 0)
		if err != nil {
			return err
		}
		r, err := inst.app.Run(wingOptions())
		if cerr := checkSolve(inst.app, r, err, wingRelTol, nil, 0); cerr != nil {
			inst.close()
			return fmt.Errorf("%s: %w", name, cerr)
		}
		f := inst.app.SurfaceForces(0)
		rf.Entries[name] = refEntry{Mesh: meshLabel(sz.Wing), AlphaDeg: inst.app.Cfg.AlphaDeg, CL: f.CL, CD: f.CD}
		fmt.Printf("%s: CL=%.12g CD=%.12g (%d steps, %d linear iterations)\n", name, f.CL, f.CD, len(r.History.Steps), r.History.LinearIters)
		inst.close()
	}
	data, err := marshalIndent(rf)
	if err != nil {
		return err
	}
	return os.WriteFile(referencePath, data, 0o644)
}
