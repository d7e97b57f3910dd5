package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/bench"
	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/serve"
	"hyqsat/internal/verify"
)

// serveWorkload is an open loop against an in-process serve.Service on
// daemon defaults (simulator options, SelfCertify, Workers = nproc) with the
// paced device on. One generator goroutine sends, on a fixed schedule and
// through Handler().ServeHTTP without sockets, small mixed SAT/UNSAT 3-SAT
// jobs to POST /v1/jobs and raw wire problems to POST /v1/qpu/sample, spread
// over tenants. Every request is timed from the moment it was due.
type serveWorkload struct {
	name                      string
	jobsPerSec, samplesPerSec float64
	burst                     int // sample requests sent together at each due time
	tenants                   int
	jobVars                   []int
	samplesReads              int
	limit                     time.Duration // job latency limit counted by goodput
	poll                      time.Duration // job completion polling interval
	maxLag                    time.Duration // generator lateness that invalidates a run
}

var serveOpen = serveWorkload{
	name:          "serve-open",
	jobsPerSec:    3,
	samplesPerSec: 48,
	burst:         4,
	tenants:       16,
	jobVars:       []int{16, 20},
	samplesReads:  1,
	limit:         time.Second,
	poll:          500 * time.Microsecond,
	maxLag:        200 * time.Millisecond,
}

type jobInput struct {
	body     []byte
	tenant   string
	formula  *cnf.Formula
	expected string // JobView verdict: "sat" or "unsat"
	parse    time.Duration
}

type sampleInput struct {
	body   []byte
	tenant string
	ep     *anneal.EmbeddedProblem
	reads  int
}

type event struct {
	at    time.Duration // due time from the start of the loop
	job   bool
	index int // into jobs or samples
}

type serveInputs struct {
	jobs    []jobInput
	samples []sampleInput
	events  []event
	span    time.Duration // length of the schedule
}

// inputs generates the schedule and request bodies of one open loop of
// length d. Its jobs are one fixed pool of instances: the seed orders them
// and picks tenants and fixtures. With ~90 jobs a run, a fresh draw of
// instances per seed moved the median job latency by up to 30% between seeds
// on the reference host (80–84 ms on two seeds, 100–117 ms on four, in both
// of two sets), more than the regression bound; a fixed pool keeps runs
// comparable. The warm-up uses a pool of its own, so the measured jobs never
// meet an embedding the service cached while it warmed up.
func (w serveWorkload) inputs(seed, pool int64, d time.Duration) (*serveInputs, error) {
	rng := rand.New(rand.NewSource(seed))
	// The wire problems are one fixed set; the seed only picks among them.
	var fixtures []*anneal.EmbeddedProblem
	for k := int64(1); k <= 8; k++ {
		ep, err := bench.BuildSampleFixture(k, 8, 24)
		if err != nil {
			return nil, err
		}
		fixtures = append(fixtures, ep)
	}
	// Jobs and sample requests each arrive evenly spaced at their own rate;
	// the seed picks the job order, fixtures and tenants, not the schedule.
	nJobs, nSamples := int(d.Seconds()*w.jobsPerSec), int(d.Seconds()*w.samplesPerSec)
	in := &serveInputs{span: d}
	for k := 0; k < nJobs; k++ {
		at := time.Duration((float64(k) + 0.5) / w.jobsPerSec * float64(time.Second))
		in.events = append(in.events, event{at: at, job: true, index: k})
	}
	for k := 0; k < nSamples; k++ {
		at := time.Duration(float64(k/w.burst*w.burst) / w.samplesPerSec * float64(time.Second))
		in.events = append(in.events, event{at: at, index: k})
	}
	sort.SliceStable(in.events, func(a, b int) bool { return in.events[a].at < in.events[b].at })
	// Pool instance i has size jobVars[i/2 % len], and is satisfiable for
	// even i.
	for _, i := range rng.Perm(nJobs) {
		vars := w.jobVars[i/2%len(w.jobVars)]
		clauses := vars * 43 / 10
		instSeed := pool*1_000_000 + int64(i)
		var inst *gen.Instance
		expected := "sat"
		if i%2 == 0 {
			inst = gen.SatisfiableRandom3SAT(vars, clauses, instSeed)
		} else {
			inst, expected = gen.UnsatisfiableRandom3SAT(vars, clauses, instSeed), "unsat"
		}
		text := cnf.DIMACSString(inst.Formula)
		t := time.Now()
		f, err := cnf.ParseDIMACSString(text)
		parse := time.Since(t)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(serve.SubmitRequest{CNF: text, Seed: instSeed})
		if err != nil {
			return nil, err
		}
		in.jobs = append(in.jobs, jobInput{body: body, tenant: w.tenant(rng), formula: f,
			expected: expected, parse: parse})
	}
	for k := 0; k < nSamples; k++ {
		ep := fixtures[rng.Intn(len(fixtures))]
		body, err := json.Marshal(qpu.SampleRequest{Problem: ep.Wire(), Reads: w.samplesReads})
		if err != nil {
			return nil, err
		}
		in.samples = append(in.samples, sampleInput{body: body, tenant: w.tenant(rng), ep: ep, reads: w.samplesReads})
	}
	if len(in.jobs) == 0 || len(in.samples) == 0 {
		return nil, fmt.Errorf("schedule of %v holds no job or no sample request", d)
	}
	return in, nil
}

// serviceEnv is one running service with its shared registry and the
// timing decorator's accumulator.
type serviceEnv struct {
	svc   *serve.Service
	h     http.Handler
	reg   *obs.Registry
	timer *qpuTimer
	ring  *obs.Ring
}

// start builds a service, warms it up with the first jobs and sample
// requests of warm, and returns the time that took.
func (w serveWorkload) start(warm *serveInputs, traced bool, spans *spanLog) (*serviceEnv, time.Duration, error) {
	t0 := time.Now()
	env := &serviceEnv{reg: obs.NewRegistry(), timer: &qpuTimer{}}
	solve := hyqsat.SimulatorOptions()
	solve.SelfCertify = true
	solve.Metrics = env.reg
	solve.WrapBackend = func(b qpu.Backend) qpu.Backend { return timeBackend(b, env.timer, spans, 0, 0) }
	cfg := serve.Config{
		Workers:           runtime.NumCPU(),
		Solve:             solve,
		HaveSolveDefaults: true,
		BatchPace:         true,
		Metrics:           env.reg,
	}
	if traced {
		env.ring = obs.NewRing(1 << 14)
		cfg.Trace = env.ring
	}
	env.svc = serve.New(cfg)
	env.h = env.svc.Handler()

	for k := 0; k < warmups; k++ {
		if err := w.warm(env, &warm.jobs[k%len(warm.jobs)], &warm.samples[k%len(warm.samples)]); err != nil {
			env.stop()
			return nil, 0, err
		}
	}
	return env, time.Since(t0), nil
}

// warmups is how many jobs and sample requests a new service serves before
// it counts as set up.
const warmups = 4

// warm serves one job to completion and one sample request.
func (w serveWorkload) warm(env *serviceEnv, j *jobInput, smp *sampleInput) error {
	id, code := submitJob(env.h, j)
	if code != http.StatusAccepted {
		return fmt.Errorf("warm-up job refused with status %d", code)
	}
	for {
		v, ok := env.svc.Job(id)
		if !ok || v.State == serve.StateFailed || v.State == serve.StateCheckpointed {
			return fmt.Errorf("warm-up job ended %q", v.State)
		}
		if v.State == serve.StateDone {
			break
		}
		time.Sleep(w.poll)
	}
	if code, _ := sampleRequest(env.h, smp); code != http.StatusOK {
		return fmt.Errorf("warm-up sample refused with status %d", code)
	}
	return nil
}

// stop drains the service and waits for its workers to exit.
func (e *serviceEnv) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = e.svc.Drain(ctx) // nothing is left in flight to lose
}

func (w serveWorkload) tenant(rng *rand.Rand) string {
	return fmt.Sprintf("tenant-%02d", rng.Intn(w.tenants))
}

// clientDeadline is the deadline every job is submitted with. It never
// expires in a healthy run; it lets composeJobs find each job's QPU calls.
const clientDeadline = time.Minute

func submitJob(h http.Handler, j *jobInput) (id string, code int) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(j.body))
	req.Header.Set(qpu.HeaderTenant, j.tenant)
	req.Header.Set(qpu.HeaderDeadlineMs, strconv.FormatInt(clientDeadline.Milliseconds(), 10))
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		return "", rec.Code
	}
	var v serve.JobView
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		return "", http.StatusInternalServerError
	}
	return v.ID, rec.Code
}

func sampleRequest(h http.Handler, s *sampleInput) (int, []byte) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, qpu.SamplePath, bytes.NewReader(s.body))
	req.Header.Set(qpu.HeaderTenant, s.tenant)
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// checkSample decodes a sample response and validates its read set against
// the problem that was sent.
func checkSample(s *sampleInput, body []byte) error {
	var resp qpu.SampleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	rs, err := resp.ReadSet()
	if err != nil {
		return err
	}
	return anneal.ValidateReadSet(s.ep, &rs, s.reads)
}

// servePass is what one open loop measured.
type servePass struct {
	mu                sync.Mutex
	wrong             error
	attempted, failed int
	good, done        int
	jobLat, sampleLat []time.Duration
	doneJobs          []doneJob
	accepted          []doneJob // every accepted job's submission window
	byDeadline        map[int64]qpuStats
	submit            []time.Duration
	queueMs, runMs    []float64
	check             time.Duration
	lagMax            time.Duration
	start, lastDone   time.Time
	doneFormulas      []*cnf.Formula
	counters          map[string]int64
	conflicts         int64
	qpu               qpuStats
	events            int64
}

func (p *servePass) fail() {
	p.mu.Lock()
	p.failed++
	p.mu.Unlock()
}

func (p *servePass) setWrong(err error) {
	p.mu.Lock()
	if p.wrong == nil {
		p.wrong = err
	}
	p.mu.Unlock()
}

type pendingJob struct {
	id         string
	due        time.Time
	sent, back time.Time // the submission call's start and return
	in         *jobInput
	trace      int64
	root       int64
}

// doneJob is a certified job's latency and submission window.
type doneJob struct {
	lat        time.Duration
	sent, back time.Time
}

// pass runs the open loop over in.events against env and waits until every
// request has been answered or timed out.
func (w serveWorkload) pass(env *serviceEnv, in *serveInputs, spans *spanLog) (*servePass, error) {
	p := &servePass{attempted: len(in.events)}
	before := env.reg.Snapshot()
	env.timer.reset()

	submitted := make(chan pendingJob, len(in.jobs)) // one send per job, never blocks the generator
	pollDone := make(chan struct{})
	start := time.Now().Add(5 * time.Millisecond)
	p.start = start
	end := start.Add(in.span)
	go func() {
		defer close(pollDone)
		w.watch(env, p, submitted, end.Add(60*time.Second), spans)
	}()

	var wg sync.WaitGroup
	sem := make(chan struct{}, 64) // bounds in-flight sample requests
	for k, ev := range in.events {
		due := start.Add(ev.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		if lag := time.Since(due); lag > p.lagMax {
			p.lagMax = lag
		}
		trace, root := int64(k+1), spans.newID()
		if ev.job {
			j := &in.jobs[ev.index]
			t0 := time.Now()
			id, code := submitJob(env.h, j)
			t1 := time.Now()
			spans.add(trace, spans.newID(), root, "serve.submit", t0, t1)
			p.submit = append(p.submit, t1.Sub(t0))
			if code != http.StatusAccepted {
				p.fail()
				continue
			}
			p.accepted = append(p.accepted, doneJob{sent: t0, back: t1})
			submitted <- pendingJob{id: id, due: due, sent: t0, back: t1, in: j, trace: trace, root: root}
			continue
		}
		select {
		case sem <- struct{}{}:
		default:
			p.fail() // the generator never waits: an overfull loop counts as refused
			continue
		}
		wg.Add(1)
		go func(s *sampleInput, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			code, body := sampleRequest(env.h, s)
			t1 := time.Now()
			spans.add(trace, spans.newID(), root, "serve.sample", t0, t1)
			spans.add(trace, root, 0, "sample", due, t1)
			if code != http.StatusOK {
				p.fail()
				return
			}
			if err := checkSample(s, body); err != nil {
				p.setWrong(fmt.Errorf("sample read set: %w", err))
				return
			}
			p.mu.Lock()
			p.sampleLat = append(p.sampleLat, t1.Sub(due))
			p.mu.Unlock()
		}(&in.samples[ev.index], due)
	}
	close(submitted)
	wg.Wait()
	<-pollDone

	after := env.reg.Snapshot()
	p.counters = map[string]int64{}
	for name, v := range after.Counters {
		p.counters[name] = v - before.Counters[name]
	}
	const conflictHist = "hyqsat_conflict_depth"
	p.conflicts = after.Histograms[conflictHist].Count - before.Histograms[conflictHist].Count
	p.qpu = env.timer.snapshot()
	p.byDeadline = env.timer.deadlines()
	lost := p.qpu.calls - attributed(p.accepted, p.byDeadline)
	if env.ring != nil {
		p.events = env.ring.Total()
	}
	if p.wrong != nil {
		return nil, fmt.Errorf("%w: %v", errWrong, p.wrong)
	}
	if p.lagMax > w.maxLag {
		return nil, fmt.Errorf("run invalid: the generator fell %v behind its schedule", p.lagMax)
	}
	if lost != 0 {
		return nil, fmt.Errorf("run invalid: %d of %d QPU calls could not be matched to a job", lost, p.qpu.calls)
	}
	if p.done == 0 || len(p.sampleLat) == 0 {
		return nil, fmt.Errorf("no job or no sample request completed")
	}
	if p50 := durQuantile(p.jobLat, 0.5); ms(w.poll) > p50/20 {
		return nil, fmt.Errorf("run invalid: polling every %v is coarser than 1/20 of the %.2fms median", w.poll, p50)
	}
	return p, nil
}

// composeJobs gives each job the paper's composition: its latency minus the
// wall time its solver spent inside QPU Submit, plus the device time it was
// charged. Jobs are matched to their QPU calls by context deadline: every job
// carries a client deadline of clientDeadline, so its solve context expires
// clientDeadline after a moment inside its submission call. A job that made
// no QPU call keeps its latency; attributed checks that no call went unmatched.
func composeJobs(jobs []doneJob, byDeadline map[int64]qpuStats) []float64 {
	keys := make([]int64, 0, len(byDeadline))
	for k := range byDeadline {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	composed := make([]float64, len(jobs))
	for i, j := range jobs {
		lo := j.sent.Add(clientDeadline).UnixNano()
		hi := j.back.Add(clientDeadline).UnixNano()
		var st qpuStats
		if k := sort.Search(len(keys), func(n int) bool { return keys[n] >= lo }); k < len(keys) && keys[k] <= hi {
			st = byDeadline[keys[k]]
		}
		composed[i] = ms(j.lat - st.busy + st.shares)
	}
	return composed
}

// attributed counts the QPU calls whose context deadline falls inside some
// job's submission window shifted by clientDeadline. Every QPU call the
// timing decorator sees comes from a job's solve, so a shortfall means the
// service no longer derives the solve deadline from the client's, and
// composeJobs would silently leave those jobs uncorrected.
func attributed(jobs []doneJob, byDeadline map[int64]qpuStats) int64 {
	var n int64
	for k, st := range byDeadline {
		for _, j := range jobs {
			if k >= j.sent.Add(clientDeadline).UnixNano() && k <= j.back.Add(clientDeadline).UnixNano() {
				n += st.calls
				break
			}
		}
	}
	return n
}

// watch watches submitted jobs with Service.Job until each ends or the
// deadline passes, and checks every verdict.
func (w serveWorkload) watch(env *serviceEnv, p *servePass, submitted <-chan pendingJob, deadline time.Time, spans *spanLog) {
	tick := time.NewTicker(w.poll)
	defer tick.Stop()
	var pending []pendingJob
	open := true
	for open || len(pending) > 0 {
		select {
		case j, ok := <-submitted:
			if !ok {
				open = false
				continue
			}
			pending = append(pending, j)
			continue
		case <-tick.C:
		}
		now := time.Now()
		if now.After(deadline) {
			for range pending {
				p.fail()
			}
			return
		}
		kept := pending[:0]
		for _, j := range pending {
			v, ok := env.svc.Job(j.id)
			if ok && (v.State == serve.StateQueued || v.State == serve.StateRunning) {
				kept = append(kept, j)
				continue
			}
			w.finish(p, j, v, ok, now, spans)
		}
		pending = kept
	}
}

// finish checks one ended job against the generator's expectation.
func (w serveWorkload) finish(p *servePass, j pendingJob, v serve.JobView, ok bool, now time.Time, spans *spanLog) {
	if !ok || v.State != serve.StateDone {
		p.fail()
		return
	}
	if v.Verdict != j.in.expected {
		p.setWrong(fmt.Errorf("job %s answered %q, generator says %q", v.ID, v.Verdict, j.in.expected))
		return
	}
	t0 := time.Now()
	if v.Verdict == "sat" {
		model := make([]bool, j.in.formula.NumVars)
		for i, lit := range v.Model {
			if i < len(model) {
				model[i] = lit > 0
			}
		}
		if err := verify.CheckModel(j.in.formula, model); err != nil {
			p.setWrong(fmt.Errorf("job %s model fails its formula: %v", v.ID, err))
			return
		}
	}
	t1 := time.Now()
	spans.add(j.trace, spans.newID(), j.root, "verify.check", t0, t1)
	spans.add(j.trace, j.root, 0, "job", j.due, now)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.check += t1.Sub(t0)
	if !v.Certified {
		p.failed++
		return
	}
	lat := now.Sub(j.due)
	p.done++
	if now.After(p.lastDone) {
		p.lastDone = now
	}
	if lat <= w.limit {
		p.good++
	}
	p.jobLat = append(p.jobLat, lat)
	p.doneJobs = append(p.doneJobs, doneJob{lat: lat, sent: j.sent, back: j.back})
	p.queueMs = append(p.queueMs, float64(v.QueueMs))
	p.runMs = append(p.runMs, float64(v.RunMs))
	p.doneFormulas = append(p.doneFormulas, j.in.formula)
}

func (w serveWorkload) run(cfg config) (*report, error) {
	rep := newReport()
	d := cfg.duration()
	if cfg.traced {
		d /= 2
	}
	t := time.Now()
	in, err := w.inputs(cfg.seed, 1, d)
	if err != nil {
		return nil, err
	}
	// Set-up warms every service with the same requests, whatever the seed.
	warm, err := w.inputs(0, 0, time.Duration(warmups)*time.Second)
	if err != nil {
		return nil, err
	}
	genTime := time.Since(t)

	// Set up five times; keep the last service.
	var setups []float64
	var env *serviceEnv
	for k := 0; k < 5; k++ {
		if env != nil {
			env.stop()
		}
		var took time.Duration
		if env, took, err = w.start(warm, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	// The host's speed is probed while the process is quiet, before the open
	// loop and after the service has drained, and only reported: unlike the
	// hybrid loops' figures, this workload's did not follow the probe on the
	// reference host, and scaling them made them spread more.
	probe := newSpeedProbe()
	for k := 0; k < 5; k++ {
		quiesce(probe)
	}
	mem := startMemSampler()
	base, err := w.pass(env, in, nil)
	peak := mem.peakMB()
	env.stop()
	for k := 0; k < 5; k++ {
		quiesce(probe)
	}
	if err != nil {
		return nil, err
	}
	rep.attempted, rep.failed = base.attempted, base.failed
	rep.set("setup_s", quantile(setups, 0.5))
	w.endToEnd(rep, base, peak)
	rep.set("bench.probe_ms", probe.probeMs())
	rep.set("bench.gen_s", genTime.Seconds())
	if !cfg.traced {
		return rep, nil
	}

	spans := newSpanLog()
	env, _, err = w.start(warm, true, spans)
	if err != nil {
		return nil, err
	}
	traced, err := w.pass(env, in, spans)
	env.stop()
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	rep.attempted += traced.attempted
	rep.failed += traced.failed
	rep.set("obs.trace_overhead_frac", durQuantile(traced.jobLat, 0.5)/durQuantile(base.jobLat, 0.5)-1)
	w.perLayer(rep, traced, in)
	return rep, spans.writeFile(cfg.spanPath())
}

func (w serveWorkload) endToEnd(rep *report, p *servePass, peakMB float64) {
	n := float64(p.done)
	device := time.Duration(p.counters["hyqsat_phase_qa_device_ns"])
	rep.set("wall_ms_p50", durQuantile(p.jobLat, 0.5))
	rep.set("hybrid_ms_p50", quantile(composeJobs(p.doneJobs, p.byDeadline), 0.5))
	rep.set("verdicts_per_s", float64(p.good)/p.lastDone.Sub(p.start).Seconds())
	rep.note("qpu_ms_mean", durMean(p.sampleLat), "ms")
	rep.set("mem_peak_mb", peakMB)
	rep.set("qpu.device_ms", ms(device)/n)
	rep.note("wall_ms_p90", durQuantile(p.jobLat, 0.9), "ms")
	rep.note("wall_ms_p99", durQuantile(p.jobLat, 0.99), "ms")
	rep.note("qpu_ms_p50", durQuantile(p.sampleLat, 0.5), "ms")
	rep.note("qpu_ms_p99", durQuantile(p.sampleLat, 0.99), "ms")
	rep.note("jobs", n, "count")
	rep.note("samples", float64(len(p.sampleLat)), "count")
}

func (w serveWorkload) perLayer(rep *report, p *servePass, in *serveInputs) {
	n := float64(p.done)
	c := func(name string) float64 { return float64(p.counters[name]) }
	nsPerJob := func(name string) float64 { return c(name) / 1e6 / n }

	var parse time.Duration
	for _, j := range in.jobs {
		parse += j.parse
	}
	rep.set("cnf.parse_ms", ms(parse)/float64(len(in.jobs)))
	rep.set("hyqsat.new_ms", newTime(p.doneFormulas))
	rep.set("hyqsat.frontend_ms", nsPerJob("hyqsat_phase_frontend_ns"))
	rep.set("hyqsat.frontend_us_per_iter", ratio(c("hyqsat_phase_frontend_ns")/1e3, c("hyqsat_warmup_iterations")))
	rep.set("hyqsat.backend_ms", nsPerJob("hyqsat_phase_backend_ns"))
	rep.set("hyqsat.warmup_iters", c("hyqsat_warmup_iterations")/n)
	rep.set("hyqsat.qa_useful_frac", ratio(c("hyqsat_strategy1_hits")+c("hyqsat_strategy2_hits")+c("hyqsat_strategy4_hits"),
		c("hyqsat_qa_calls")))
	rep.set("hyqsat.degraded", c("hyqsat_qa_degraded"))
	hits, misses := c("hyqsat_embed_cache_hits"), c("hyqsat_embed_cache_misses")
	rep.set("embed.cache_hit_frac", ratio(hits, hits+misses))
	rep.set("embed.template_frac", ratio(c("embed_template_hits"), misses))
	rep.set("embed.fast_runs", c("embed_fast_runs")/n)
	rep.set("qpu.calls", float64(p.qpu.calls)/n)
	rep.set("qpu.submit_us_per_call", ratio(us(p.qpu.busy), float64(p.qpu.calls)))
	rep.set("qpu.errors", float64(p.qpu.errors))
	rep.set("anneal.reads", c("hyqsat_qa_reads")/n)
	programs := c("batch_programs")
	rep.set("qbatch.members_per_program", ratio(c("batch_members"), programs))
	rep.set("qbatch.solo_frac", ratio(c("batch_solo"), programs))
	rep.set("qbatch.device_saved_frac", ratio(c("batch_device_saved_ns"), c("batch_device_ns")+c("batch_device_saved_ns")))
	rep.set("sat.cdcl_ms", nsPerJob("hyqsat_phase_cdcl_ns"))
	rep.set("sat.conflicts", float64(p.conflicts)/n)
	rep.set("verify.check_ms", ms(p.check)/n)
	rep.note("serve.submit_us", durQuantile(p.submit, 0.5)*1e3, "us")
	rep.note("serve.queue_ms_p50", quantile(p.queueMs, 0.5), "ms")
	rep.note("serve.run_ms_p50", quantile(p.runMs, 0.5), "ms")
	rep.note("serve.rejected", c("serve_jobs_rejected")+c("serve_qpu_rejected"), "count")
	rep.note("bench.gen_lag_ms_max", ms(p.lagMax), "ms")
	rep.note("bench.poll_ms", ms(w.poll), "ms")
	rep.note("obs.events", float64(p.events), "count")
}

// newTime is the mean time of hyqsat.New with the service's job options over
// the given formulas, measured after the load has ended: the service builds
// its solvers inside its workers, out of the benchmark's reach.
func newTime(formulas []*cnf.Formula) float64 {
	opts := hyqsat.SimulatorOptions()
	opts.SelfCertify = true
	opts.SatPool = sat.NewPool()
	var total time.Duration
	for _, f := range formulas {
		t := time.Now()
		s := hyqsat.New(f, opts)
		total += time.Since(t)
		s.Release()
	}
	return ms(total) / float64(len(formulas))
}
