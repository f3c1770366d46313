package main

import (
	"fmt"
	"time"

	"fun3d/internal/mesh"
)

// sizing holds every quantity of a run that the time budget scales. The
// driver's contract leaves about half a minute per run, set-up included,
// so against the issue's first draft the sample counts were cut first
// (two to three timed solves instead of four), then the service job
// meshes and the job count of the traced pass; the wing workloads keep
// full Mesh-C' and the cluster keeps 256 ranks on it.
type sizing struct {
	Seconds float64

	// Wing is Mesh-C' (the wing workloads and the cluster decompose it).
	Wing mesh.GenSpec

	// Service: nine jobs in ten solve on Small, one on Big — the larger
	// jobs block the head of the queue, so the tail percentile measures
	// scheduling and not only solve time.
	Small, Big mesh.GenSpec
	Jobs       int // timed jobs of the untraced pass
	TracedJobs int // jobs of each batch of the traced pass

	Ranks        int
	RanksPerNode int
	// RankMesh is the cluster ladder's mesh: about what one rank holds,
	// owned plus ghost vertices (twice the owned count at this subdomain
	// size), so the ladder times the kernels in the regime the simulated
	// ranks run them in.
	RankMesh mesh.GenSpec

	// TriadMaxMB caps one STREAM array of the calibration (four times a
	// very large LLC would otherwise ask for gigabytes); SpinIters is the
	// length of its memory-free loop.
	TriadMaxMB float64
	SpinIters  int
}

// minTimedOps is the least number of timed operations of a time-boxed
// workload, whatever the budget.
const minTimedOps = 2

// fullSizing sizes a run of the given length. The service job mix completes
// about eleven jobs a second on one worker of the reference host, so ten
// jobs per budgeted second fill the run; the count is a multiple of ten so
// that exactly one job in ten is a big one. The traced pass runs two
// batches of three jobs per budgeted second (60 at the default 20 s).
func fullSizing(seconds float64) sizing {
	jobs := max(20, 10*int(seconds+0.5))
	return sizing{
		Seconds:      seconds,
		Wing:         mesh.SpecC(),
		Small:        mesh.ScaleSpec(mesh.SpecC(), 0.03),
		Big:          mesh.ScaleSpec(mesh.SpecC(), 0.1),
		Jobs:         jobs,
		TracedJobs:   max(20, 10*int(0.3*seconds+0.5)),
		Ranks:        256,
		RanksPerNode: 16,
		RankMesh:     mesh.ScaleSpec(mesh.SpecC(), 2.0/256),
		TriadMaxMB:   256,
		SpinIters:    20_000_000,
	}
}

// tinySizing is the smoke-test size: every workload end to end in well
// under a second.
func tinySizing() sizing {
	return sizing{
		Seconds:      0.05,
		Wing:         mesh.SpecTiny(),
		Small:        mesh.SpecTiny(),
		Big:          mesh.ScaleSpec(mesh.SpecTiny(), 2),
		Jobs:         6,
		TracedJobs:   6,
		Ranks:        4,
		RanksPerNode: 2,
		RankMesh:     mesh.SpecTiny(),
		TriadMaxMB:   1,
		SpinIters:    200_000,
	}
}

// meshLabel names a spec by its grid, the key of reference.json entries.
func meshLabel(s mesh.GenSpec) string { return fmt.Sprintf("%dx%dx%d", s.NX, s.NY, s.NZ) }

// timedLoop runs op at least minTimedOps times and then for as long as the
// next operation is expected to finish within 1.15x the budget, so a run's
// length does not flip between n and n+1 operations on timing noise. op
// returns its own wall time in seconds. total is the wall of the whole
// loop, the denominator of ops_per_s.
func timedLoop(seconds float64, op func() float64) (walls []float64, total float64) {
	t0 := time.Now()
	for {
		walls = append(walls, op())
		elapsed := time.Since(t0).Seconds()
		if len(walls) >= minTimedOps && elapsed+median(walls) > 1.15*seconds {
			return walls, elapsed
		}
	}
}

// Set-up is repeated so setup_s can be a median: at least setupMinReps
// times, more while the repetitions so far took under setupFillSeconds
// (cheap set-ups are the noisy ones), never more than setupMaxReps.
const (
	setupMinReps     = 3
	setupMaxReps     = 15
	setupFillSeconds = 1.5
)

// repeatSetup builds fresh instances, releasing all but the last, and
// returns the last instance with every repetition's wall time in seconds.
func repeatSetup[T any](build func() (T, error), release func(T)) (T, []float64, error) {
	var last T
	var times []float64
	total := 0.0
	for rep := 0; rep < setupMaxReps; rep++ {
		if rep >= setupMinReps && total >= setupFillSeconds {
			break
		}
		if rep > 0 {
			release(last)
		}
		t0 := time.Now()
		inst, err := build()
		if err != nil {
			var zero T
			return zero, times, err
		}
		d := time.Since(t0).Seconds()
		times = append(times, d)
		total += d
		last = inst
	}
	return last, times, nil
}
