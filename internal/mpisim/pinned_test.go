package mpisim

import (
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"fun3d/internal/mesh"
	"fun3d/internal/perfmodel"
	"fun3d/internal/prof"
)

// pinRecord is everything a fault-free solve reports, reduced to exact
// integers: the Result counters, the IEEE bits of the norms and virtual
// times, an FNV-1a hash over the residual history bits, and the kernel
// record (counters by name, virtual kernel time in nanoseconds).
type pinRecord struct {
	Steps, LinearIters      int
	Converged               bool
	Msgs, Bytes, Allreduces int
	Stages, Hops            int
	PtPHops                 int
	CrossNode, CrossPod     int
	HistLen                 int
	HistHash                uint64
	RNorm0, RNormFinal      uint64
	Time, Compute           uint64
	PtP, Allreduce          uint64
	Counters                map[string]int64
	KernelNs                map[string]int64
}

// pinnedCounters are the prof counters a simulated solve may book. Every
// counter outside this list must read zero.
var pinnedCounters = []prof.Counter{
	prof.FluxEdges, prof.GradEdges, prof.JacEdges, prof.ILUBlocks,
	prof.TRSVBlocks, prof.VecElems, prof.AllreduceCalls, prof.AllreduceBytes,
	prof.HaloMsgs, prof.HaloBytes, prof.GMRESIters, prof.NewtonSteps,
	prof.KrylovAllreduceCalls, prof.KrylovAllreduceBytes, prof.ResidualSweeps,
	prof.ServiceJobs, prof.ServiceSolveSteps, prof.ILURows, prof.StagedEdges,
	prof.StagedGatherBytes, prof.StagedScatterBytes, prof.CollectiveStages,
	prof.CollectiveHops, prof.PtPHops, prof.PtPCrossNodeBytes, prof.PtPCrossPodBytes,
}

func pinOf(t *testing.T, res Result) pinRecord {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range res.History {
		bits := math.Float64bits(v)
		for i := range b {
			b[i] = byte(bits >> (8 * i))
		}
		h.Write(b[:])
	}
	p := pinRecord{
		Steps: res.Steps, LinearIters: res.LinearIters, Converged: res.Converged,
		Msgs: res.Msgs, Bytes: res.Bytes, Allreduces: res.Allreduces,
		Stages: res.AllreduceStages, Hops: res.AllreduceHops,
		PtPHops: res.PtPHops, CrossNode: res.PtPCrossNodeBytes, CrossPod: res.PtPCrossPodBytes,
		HistLen: len(res.History), HistHash: h.Sum64(),
		RNorm0: math.Float64bits(res.RNorm0), RNormFinal: math.Float64bits(res.RNormFinal),
		Time: math.Float64bits(res.Time), Compute: math.Float64bits(res.ComputeTime),
		PtP: math.Float64bits(res.PtPTime), Allreduce: math.Float64bits(res.AllreduceTime),
		Counters: map[string]int64{}, KernelNs: map[string]int64{},
	}
	listed := map[prof.Counter]bool{}
	for _, c := range pinnedCounters {
		listed[c] = true
		if v := res.Metrics.Counter(c); v != 0 {
			p.Counters[c.String()] = v
		}
	}
	for _, c := range prof.AllCounters() {
		if !listed[c] && res.Metrics.Counter(c) != 0 {
			t.Errorf("unlisted counter %s = %d on a fault-free run", c, res.Metrics.Counter(c))
		}
	}
	for _, k := range prof.Kernels() {
		if d := res.Metrics.Total(k); d != 0 {
			p.KernelNs[k.String()] = int64(d)
		}
	}
	return p
}

func pinCases() map[string]Config {
	base := func() Config {
		return Config{Ranks: 4, Rates: testRates(), Net: testNet(), MaxSteps: 4, Seed: 3}
	}
	pipelined := base()
	pipelined.Pipelined = true
	hybrid := base()
	hybrid.ThreadsPerRank = 2
	hybrid.Overlap = true
	fatTree := base()
	fatTree.Ranks = 8
	fatTree.Net = placementNet(2, 2)
	fatTree.Net.Place = perfmodel.PlaceLocality
	fatTree.Net.Algo = perfmodel.AllreduceHier
	ilu1 := base()
	ilu1.FillLevel = 1
	return map[string]Config{
		"classical-tree":        base(),
		"pipelined":             pipelined,
		"hybrid-overlap":        hybrid,
		"fattree-locality-hier": fatTree,
		"ilu1":                  ilu1,
	}
}

// TestPinnedResults pins five fault-free tiny-mesh solves at tolerance 0:
// the simulator's arithmetic and its order of operations must not move
// under refactoring.
func TestPinnedResults(t *testing.T) {
	m, err := mesh.Generate(mesh.SpecTiny())
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range pinCases() {
		res, err := Solve(m, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := pinOf(t, res)
		want, ok := pinned[name]
		if !ok {
			t.Errorf("%s: no pin; got %+v", name, got)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: pinned result moved\n got %+v\nwant %+v", name, got, want)
		}
	}
}

var pinned = map[string]pinRecord{
	"classical-tree": {
		Steps: 3, LinearIters: 32, Converged: true,
		Msgs: 432, Bytes: 497664, Allreduces: 141,
		Stages: 282, Hops: 0, PtPHops: 0, CrossNode: 0, CrossPod: 0,
		HistLen: 3, HistHash: 0xf9d79dc20e457324,
		RNorm0: 0x40045263cb1f2935, RNormFinal: 0x3eacd75b870b965c,
		Time: 0x3f80d7b77b45b580, Compute: 0x3f8014df4ef448b6,
		PtP: 0x3f01101daf686548, Allreduce: 0x3f363901d4408c68,
		Counters: map[string]int64{
			"allreduce_bytes":        3800,
			"allreduce_calls":        141,
			"collective_stages":      282,
			"flux_edges":             153756,
			"gmres_iters":            32,
			"halo_bytes":             497664,
			"halo_msgs":              432,
			"ilu_blocks":             19902,
			"ilu_rows":               1920,
			"jac_edges":              12813,
			"krylov_allreduce_bytes": 3720,
			"krylov_allreduce_calls": 131,
			"newton_steps":           3,
			"trsv_blocks":            232190,
			"vec_elems":              2675200,
		},
		KernelNs: map[string]int64{
			"allreduce": 1356364,
			"flux":      23063328,
			"halo":      130179,
			"ilu":       597051,
			"jacobian":  3203250,
			"other":     12813,
			"trsv":      1857520,
			"vecops":    2675200,
		},
	},
	"pipelined": {
		Steps: 3, LinearIters: 32, Converged: true,
		Msgs: 432, Bytes: 497664, Allreduces: 45,
		Stages: 90, Hops: 0, PtPHops: 0, CrossNode: 0, CrossPod: 0,
		HistLen: 3, HistHash: 0xb1c3ae8b940ea0d1,
		RNorm0: 0x40045263cb1f2935, RNormFinal: 0x3eacd75fecfe867b,
		Time: 0x3f813204b128fb3c, Compute: 0x3f80afe4ce65172b,
		PtP: 0x3f0372ac2290e128, Allreduce: 0x3f2bab4da854cc4b,
		Counters: map[string]int64{
			"allreduce_bytes":        7008,
			"allreduce_calls":        45,
			"collective_stages":      90,
			"flux_edges":             153756,
			"gmres_iters":            32,
			"halo_bytes":             497664,
			"halo_msgs":              432,
			"ilu_blocks":             19902,
			"ilu_rows":               1920,
			"jac_edges":              12813,
			"krylov_allreduce_bytes": 6928,
			"krylov_allreduce_calls": 35,
			"newton_steps":           3,
			"trsv_blocks":            232190,
			"vec_elems":              3857920,
		},
		KernelNs: map[string]int64{
			"allreduce": 844393,
			"flux":      23063328,
			"halo":      148373,
			"ilu":       597051,
			"jacobian":  3203250,
			"other":     12813,
			"trsv":      1857520,
			"vecops":    3857920,
		},
	},
	"hybrid-overlap": {
		Steps: 3, LinearIters: 32, Converged: true,
		Msgs: 432, Bytes: 497664, Allreduces: 141,
		Stages: 282, Hops: 0, PtPHops: 0, CrossNode: 0, CrossPod: 0,
		HistLen: 3, HistHash: 0xf9d79dc20e457324,
		RNorm0: 0x40045263cb1f2935, RNormFinal: 0x3eacd75b870b965c,
		Time: 0x3f80c6bd82f1a65f, Compute: 0x3f8014df4ef448b6,
		PtP: 0x0000000000000000, Allreduce: 0x3f363bc67fabb4fe,
		Counters: map[string]int64{
			"allreduce_bytes":        3800,
			"allreduce_calls":        141,
			"collective_stages":      282,
			"flux_edges":             153756,
			"gmres_iters":            32,
			"halo_bytes":             497664,
			"halo_msgs":              432,
			"ilu_blocks":             19902,
			"ilu_rows":               1920,
			"jac_edges":              12813,
			"krylov_allreduce_bytes": 3720,
			"krylov_allreduce_calls": 131,
			"newton_steps":           3,
			"trsv_blocks":            232190,
			"vec_elems":              2675200,
		},
		KernelNs: map[string]int64{
			"allreduce": 1357025,
			"flux":      23063328,
			"ilu":       597051,
			"jacobian":  3203250,
			"other":     12813,
			"trsv":      1857520,
			"vecops":    2675200,
		},
	},
	"fattree-locality-hier": {
		Steps: 3, LinearIters: 36, Converged: true,
		Msgs: 1840, Bytes: 832000, Allreduces: 157,
		Stages: 628, Hops: 628, PtPHops: 3280, CrossNode: 606720, CrossPod: 343040,
		HistLen: 3, HistHash: 0x34ae5cd68a1683a2,
		RNorm0: 0x40045263cb1f2935, RNormFinal: 0x3ea2f3fe1ddd230d,
		Time: 0x3f79fd825851a92d, Compute: 0x3f729dd76be22645,
		PtP: 0x3f282fc9c456d9ba, Allreduce: 0x3f5a78b27933309d,
		Counters: map[string]int64{
			"allreduce_bytes":        4680,
			"allreduce_calls":        157,
			"collective_hops":        628,
			"collective_stages":      628,
			"flux_edges":             181480,
			"gmres_iters":            36,
			"halo_bytes":             832000,
			"halo_msgs":              1840,
			"ilu_blocks":             18306,
			"ilu_rows":               1920,
			"jac_edges":              13611,
			"krylov_allreduce_bytes": 4600,
			"krylov_allreduce_calls": 147,
			"newton_steps":           3,
			"ptp_cross_node_bytes":   606720,
			"ptp_cross_pod_bytes":    343040,
			"ptp_hops":               3280,
			"trsv_blocks":            237978,
			"vec_elems":              3269120,
		},
		KernelNs: map[string]int64{
			"allreduce": 12925520,
			"flux":      27221680,
			"halo":      1476234,
			"ilu":       549174,
			"jacobian":  3402744,
			"other":     13611,
			"trsv":      1903824,
			"vecops":    3269120,
		},
	},
	"ilu1": {
		Steps: 3, LinearIters: 30, Converged: true,
		Msgs: 408, Bytes: 470016, Allreduces: 133,
		Stages: 266, Hops: 0, PtPHops: 0, CrossNode: 0, CrossPod: 0,
		HistLen: 3, HistHash: 0x8976d3e772b86598,
		RNorm0: 0x40045263cb1f2935, RNormFinal: 0x3e9fa055b8c788f8,
		Time: 0x3f81448a43ac0535, Compute: 0x3f807af69649d8f3,
		PtP: 0x3f00ec69fea9f5c0, Allreduce: 0x3f3714e86c7049e2,
		Counters: map[string]int64{
			"allreduce_bytes":        3368,
			"allreduce_calls":        133,
			"collective_stages":      266,
			"flux_edges":             145214,
			"gmres_iters":            30,
			"halo_bytes":             470016,
			"halo_msgs":              408,
			"ilu_blocks":             40734,
			"ilu_rows":               1920,
			"jac_edges":              12813,
			"krylov_allreduce_bytes": 3288,
			"krylov_allreduce_calls": 123,
			"newton_steps":           3,
			"trsv_blocks":            448074,
			"vec_elems":              2383360,
		},
		KernelNs: map[string]int64{
			"allreduce": 1408792,
			"flux":      21782032,
			"halo":      129113,
			"ilu":       1222011,
			"jacobian":  3203250,
			"other":     12813,
			"trsv":      3584592,
			"vecops":    2383360,
		},
	},
}
