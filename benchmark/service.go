package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fun3d/internal/core"
	"fun3d/internal/mesh"
	"fun3d/internal/service"
)

// serviceJob is one generated request.
type serviceJob struct {
	AlphaDeg float64
	Big      bool
}

// genJobs is the seeded job sequence: angles of attack uniform on [0, 6)
// degrees, and in every block of ten jobs exactly one, at a seeded
// position, solves on the big mesh. The exact one-in-ten mix keeps the
// batch's total work the same for every seed; only the order varies.
func genJobs(seed uint64, n int) []serviceJob {
	rng := rand.New(rand.NewSource(int64(seed)))
	jobs := make([]serviceJob, n)
	for lo := 0; lo < n; lo += 10 {
		big := lo + rng.Intn(10)
		for i := lo; i < min(lo+10, n); i++ {
			jobs[i] = serviceJob{AlphaDeg: 6 * rng.Float64(), Big: i == big}
		}
	}
	return jobs
}

// serviceSolver is the configuration every job solves with: the
// single-threaded first-order baseline, so a job is the same kernels as
// wing-o1-seq on a mesh that fits in cache.
func serviceSolver(seed uint64) core.Config {
	cfg := core.BaselineConfig()
	cfg.PartitionSeed = seed
	return cfg
}

// serviceInstance is a started fun3dd: engine, HTTP server, and the sizes
// of the closed loop around it.
type serviceInstance struct {
	eng        *service.Engine
	srv        *httptest.Server
	small, big mesh.GenSpec
	workers    int
	clients    int
}

func (s *serviceInstance) close() {
	if s == nil {
		return
	}
	s.srv.Close()
	s.eng.Close()
}

// buildService is one set-up: engine start, both artifact pre-warms (so no
// timed job pays a cache miss) and the HTTP server. workers = nproc/2
// single-threaded solves; twice as many closed-loop clients keep one job
// queued behind every running one.
func buildService(sz sizing, seed uint64) (*serviceInstance, error) {
	// The job meshes keep their own numbering: here the seed varies the job
	// sequence only. Renumbering the small mesh moves every job of a run
	// by one linear iteration in eighteen at once, which is input spread
	// on op_p50_ms, not noise the gate should carry.
	s := &serviceInstance{small: sz.Small, big: sz.Big}
	s.workers = max(1, runtime.NumCPU()/2)
	s.clients = 2 * s.workers
	solver := serviceSolver(seed)
	s.eng = service.NewEngine(service.EngineConfig{
		Mesh:          s.small,
		Solver:        solver,
		MaxConcurrent: s.workers,
		QueueDepth:    2 * s.clients,
	})
	for _, spec := range []mesh.GenSpec{s.small, s.big} {
		if _, err := s.eng.Cache().Get(spec, solver); err != nil {
			s.eng.Close()
			return nil, fmt.Errorf("pre-warm %s: %w", meshLabel(spec), err)
		}
	}
	s.srv = httptest.NewServer(s.eng.Handler())
	return s, nil
}

// jobOutcome is what the client and the engine saw of one job.
type jobOutcome struct {
	id                  string
	issued, gotID, done time.Time // client side: before POST, after 202, after the final history line
	submitted           time.Time // engine side (Job.Times)
	started, finished   time.Time
	solveWall           time.Duration
	steps, linearIters  int
	err                 error
	rejected            bool
}

// historyTail is the final NDJSON line of /v1/jobs/{id}/history.
type historyTail struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Converged   bool    `json:"converged"`
		Steps       int     `json:"steps"`
		RNorm0      float64 `json:"rnorm0"`
		RNormFinal  float64 `json:"rnorm_final"`
		LinearIters int     `json:"linear_iters"`
		WallNS      int64   `json:"wall_time_ns"`
	} `json:"result"`
}

// runJob drives one job the way a fun3dd user does: POST /v1/jobs, then
// read /v1/jobs/{id}/history (NDJSON, streamed while the job runs) to its
// final line. The output check: the job ended "done" and converged.
func (s *serviceInstance) runJob(client *http.Client, j serviceJob) jobOutcome {
	var out jobOutcome
	req := service.JobRequest{AlphaDeg: j.AlphaDeg}
	if j.Big {
		big := s.big
		req.Mesh = &big
	}
	body, err := json.Marshal(req)
	if err != nil {
		out.err = err
		return out
	}
	out.issued = time.Now()
	resp, err := client.Post(s.srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		out.err = fmt.Errorf("submit: %w", err)
		return out
	}
	var accepted struct {
		ID string `json:"id"`
	}
	derr := json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	out.gotID = time.Now()
	if resp.StatusCode != http.StatusAccepted {
		out.rejected = resp.StatusCode == http.StatusTooManyRequests
		out.err = fmt.Errorf("submit: HTTP %d", resp.StatusCode)
		return out
	}
	if derr != nil {
		out.err = fmt.Errorf("submit: decode: %w", derr)
		return out
	}
	out.id = accepted.ID

	resp, err = client.Get(s.srv.URL + "/v1/jobs/" + out.id + "/history")
	if err != nil {
		out.err = fmt.Errorf("history: %w", err)
		return out
	}
	var lastLine []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lastLine = append(lastLine[:0], sc.Bytes()...)
	}
	resp.Body.Close()
	out.done = time.Now()
	if err := sc.Err(); err != nil {
		out.err = fmt.Errorf("history: %w", err)
		return out
	}
	var tail historyTail
	if err := json.Unmarshal(lastLine, &tail); err != nil {
		out.err = fmt.Errorf("history: final line %q: %w", lastLine, err)
		return out
	}
	switch {
	case tail.State != string(service.StateDone) || tail.Result == nil:
		out.err = fmt.Errorf("job %s ended %q: %s", out.id, tail.State, tail.Error)
	case !tail.Result.Converged:
		out.err = fmt.Errorf("job %s did not converge: ||R|| %g -> %g", out.id, tail.Result.RNorm0, tail.Result.RNormFinal)
	}
	if tail.Result != nil {
		out.solveWall = time.Duration(tail.Result.WallNS)
		out.steps, out.linearIters = tail.Result.Steps, tail.Result.LinearIters
	}
	if job, ok := s.eng.Job(out.id); ok {
		out.submitted, out.started, out.finished = job.Times()
	}
	return out
}

// runBatch pushes jobs through the closed loop: every client takes the
// next job of the sequence when its previous one has completed. It returns
// the outcomes in sequence order and the batch wall time in seconds.
func (s *serviceInstance) runBatch(jobs []serviceJob) ([]jobOutcome, float64) {
	out := make([]jobOutcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < s.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := s.srv.Client()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				out[i] = s.runJob(client, jobs[i])
			}
		}()
	}
	wg.Wait()
	return out, time.Since(t0).Seconds()
}

// warmUp runs enough untimed jobs that every worker has built its pooled
// solver instance on both meshes.
func (s *serviceInstance) warmUp() error {
	var jobs []serviceJob
	for i := 0; i < s.clients; i++ {
		jobs = append(jobs, serviceJob{AlphaDeg: 3.06}, serviceJob{AlphaDeg: 3.06, Big: true})
	}
	outs, _ := s.runBatch(jobs)
	for _, o := range outs {
		if o.err != nil {
			return fmt.Errorf("warm-up job: %w", o.err)
		}
	}
	return nil
}

// poolTotals sums the instance-pool traffic over the engine's pools.
func poolTotals(st service.EngineStats) (gets, builds int64) {
	for _, ps := range st.Pools {
		gets, builds = gets+ps.Gets, builds+ps.Builds
	}
	return gets, builds
}

func latenciesMs(outs []jobOutcome) []float64 {
	ms := make([]float64, 0, len(outs))
	for _, o := range outs {
		if o.err == nil {
			ms = append(ms, float64(o.done.Sub(o.issued))/1e6)
		}
	}
	return ms
}

// runService is the untraced pass: a fixed, seeded batch of jobs through
// the closed loop.
func runService(sz sizing, seed uint64) (*passResult, error) {
	p := newPass(wlService, seed, sz.Seconds, false)
	inst, setups, err := repeatSetup(
		func() (*serviceInstance, error) { return buildService(sz, seed) },
		func(s *serviceInstance) { s.close() },
	)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	p.setSamples("setup_s", setups)
	if err := inst.warmUp(); err != nil {
		return nil, err
	}

	outs, wall := inst.runBatch(genJobs(seed, sz.Jobs))
	steps, iters := 0, 0
	for _, o := range outs {
		p.attempt(o.err)
		steps += o.steps
		iters += o.linearIters
	}
	ms := latenciesMs(outs)
	if len(ms) == 0 {
		return p, nil
	}
	walls := make([]float64, len(ms))
	for i := range ms {
		walls[i] = ms[i] / 1e3
	}
	recordOps(p, walls, wall, false)
	p.Counts["newton_steps"], p.Counts["linear_iters"] = int64(steps), int64(iters)
	p.Counts["workers"], p.Counts["clients"] = int64(inst.workers), int64(inst.clients)

	p.set("live_heap_mb", liveHeapMB())
	runtime.KeepAlive(inst)
	return p, nil
}

// runServiceTraced is the traced pass: an untraced and a traced batch
// (their median latencies give the tracing overhead), the decomposition of
// the traced batch's latency into queue wait, solve and overhead, and the
// ladder on an App like the ones the engine pools.
func runServiceTraced(sz sizing, seed uint64) (*passResult, *tracer, error) {
	p := newPass(wlService, seed, sz.Seconds, true)
	tr := newTracer()
	root := tr.begin(0, "workload:"+wlService)
	cal := startCalibration(p, sz)

	sid := tr.begin(root, "setup")
	inst, err := buildService(sz, seed)
	tr.end(sid, nil)
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	if err := inst.warmUp(); err != nil {
		return nil, nil, err
	}
	before := inst.eng.Stats()

	// Two batches of the same jobs: untraced first, then traced.
	jobs := genJobs(seed, sz.TracedJobs)
	plain, _ := inst.runBatch(jobs)
	for _, o := range plain {
		p.attempt(o.err)
	}
	bid := tr.begin(root, "batch")
	outs, _ := inst.runBatch(jobs)
	tr.end(bid, map[string]any{"jobs": len(jobs), "workers": inst.workers, "clients": inst.clients})

	var queueMs, solveMs, overheadMs []float64
	steps, rejected := 0, 0
	for i, o := range outs {
		p.attempt(o.err)
		if o.rejected {
			rejected++
		}
		if o.err != nil {
			continue
		}
		steps += o.steps
		queueMs = append(queueMs, float64(o.started.Sub(o.submitted))/1e6)
		solveMs = append(solveMs, float64(o.solveWall)/1e6)
		overheadMs = append(overheadMs, float64(o.done.Sub(o.issued)-o.finished.Sub(o.submitted))/1e6)
		attrs := map[string]any{"job": o.id, "alpha_deg": jobs[i].AlphaDeg, "big": jobs[i].Big, "steps": o.steps}
		jid := tr.add(bid, "job", o.issued, o.done, attrs)
		tr.add(jid, "http.submit", o.issued, o.gotID, map[string]any{"job": o.id})
		tr.add(jid, "queue", o.submitted, o.started, map[string]any{"job": o.id})
		tr.add(jid, "run", o.started, o.finished, map[string]any{"job": o.id})
		tr.add(jid, "http.stream", o.gotID, o.done, map[string]any{"job": o.id})
	}
	if len(queueMs) == 0 {
		return nil, nil, fmt.Errorf("no traced job succeeded: %v", p.Failures)
	}
	p.set("service.queue_wait_p50_ms", median(queueMs))
	p.set("service.queue_wait_p95_ms", percentile(queueMs, 95))
	p.set("service.solve_p50_ms", median(solveMs))
	p.set("service.overhead_p50_ms", median(overheadMs))
	p.set("service.steps_per_job", float64(steps)/float64(len(queueMs)))
	p.set("service.rejected", float64(rejected))
	p.set("prof.trace_overhead_pct", 100*(median(latenciesMs(outs))/median(latenciesMs(plain))-1))

	// Cache and pool traffic of the two batches (the pre-warms and the
	// warm-up jobs are subtracted).
	after := inst.eng.Stats()
	gets0, builds0 := poolTotals(before)
	gets1, builds1 := poolTotals(after)
	p.set("service.cache_builds", float64(after.Cache.Builds-before.Cache.Builds))
	p.set("service.cache_hits", float64(after.Cache.Hits-before.Cache.Hits))
	p.set("service.pool_builds", float64(builds1-builds0))
	p.set("service.pool_gets", float64(gets1-gets0))

	if err := ladderOnFreshApp(p, tr, root, cal, inst.small, serviceSolver(seed), seed); err != nil {
		return nil, nil, err
	}
	fillAbsent(p, "mpisim.")
	cal.finish(p)
	tr.end(root, nil)
	return p, tr, nil
}
