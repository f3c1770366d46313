package main

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"fun3d/internal/par"
	"fun3d/internal/perfmodel"
)

// solverThreads is T of the issue's host sizing: min(nproc, 4). No
// workload starts more threads, clients or connections than nproc.
func solverThreads() int { return min(runtime.NumCPU(), 4) }

// llcMB reads the size of the largest CPU cache from sysfs, in MiB. It
// falls back to 32 MiB where sysfs does not say (non-Linux hosts,
// containers that mask it).
func llcMB() float64 {
	best := 0.0
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i) + "/size")
		if err != nil {
			break
		}
		s := strings.TrimSpace(string(b))
		mult := 1.0 / (1 << 20)
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1.0/1024, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1, strings.TrimSuffix(s, "M")
		}
		if v, err := strconv.ParseFloat(s, 64); err == nil {
			best = math.Max(best, v*mult)
		}
	}
	if best == 0 {
		return 32
	}
	return best
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MiB, or the
// Go runtime's total mapped memory where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				f := strings.Fields(rest)
				if len(f) >= 1 {
					if kb, err := strconv.ParseFloat(f[0], 64); err == nil {
						return kb / 1024
					}
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

// liveHeapMB returns HeapAlloc in MiB after two full collections. Callers
// keep the workload's long-lived objects reachable across the call
// (runtime.KeepAlive), so the number is what a resident instance holds.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// triadGBs measures the host's achievable memory bandwidth in GB/s with
// perfmodel.StreamTriad on three arrays of arrayMB MiB each, over `threads`
// pool workers. It is the denominator every computed *_gb_s figure is read
// against.
func triadGBs(threads int, arrayMB float64) float64 {
	var pool *par.Pool
	if threads > 1 {
		pool = par.NewPool(threads)
		defer pool.Close()
		spreadWorkers(pool)
	}
	return perfmodel.StreamTriad(pool, int(arrayMB*(1<<20)/8)) / 1e9
}

// sink defeats dead-code elimination of the timed loops.
var sink float64

// spinLoop is a fixed, memory-free floating-point recurrence.
func spinLoop(iters int) float64 {
	x := 1.0
	for i := 0; i < iters; i++ {
		x = x*1.0000001 + 1e-9
	}
	return x
}

// spin times spinLoop (median of five); re-timed at the end of a run it
// exposes frequency or steal drift that the bandwidth probe alone would
// miss.
func spin(iters int) float64 {
	var ts []float64
	for r := 0; r < 5; r++ {
		t0 := time.Now()
		sink = spinLoop(iters)
		ts = append(ts, time.Since(t0).Seconds())
	}
	return median(ts)
}

// spreadWorkers runs short parallel spins on pool until its workers really
// run side by side: three passes in a row within 1.4x of the loop's
// single-thread time (it gives up after two seconds' worth). After a busy
// sequential phase the workers of a par.Pool can stay stacked on one vCPU
// for most of a second on the reference host — every parallel region then
// takes Size() times as long — and a ladder entry or a triad timed in that
// state reads exactly half speed. The ladder calls this before each
// threaded section so that it times the steady state a threaded solve runs
// in.
func spreadWorkers(pool *par.Pool) {
	const iters = 2_000_000
	t0 := time.Now()
	sink = spinLoop(iters)
	single := time.Since(t0)
	out := make([]float64, pool.Size())
	good := 0
	for pass := 1; ; pass++ {
		t0 := time.Now()
		pool.Run(func(tid int) { out[tid] = spinLoop(iters) })
		if time.Since(t0) < single*14/10 {
			good++
		} else {
			good = 0
		}
		if good == 3 || time.Duration(pass)*single > 2*time.Second {
			return
		}
	}
}

// driftNoisyPct is the drift beyond which a traced run is marked noisy.
const driftNoisyPct = 10

// driftPct is the larger relative change of the two calibration probes
// between the start and the end of a run, in percent.
func driftPct(triad0, triad1, spin0, spin1 float64) float64 {
	d := 0.0
	if triad0 > 0 {
		d = math.Max(d, math.Abs(triad1/triad0-1))
	}
	if spin0 > 0 {
		d = math.Max(d, math.Abs(spin1/spin0-1))
	}
	return 100 * d
}
