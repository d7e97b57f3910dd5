// Package serve is the hyqsatd service layer: an HTTP/JSON facade over the
// hybrid solver engineered for failure first. Every request passes admission
// control before touching a solver — a bounded job queue that rejects with
// Retry-After instead of buffering without bound, per-tenant token-bucket
// quotas on modelled QA device time and concurrent jobs, and idempotency
// keys so client retries never double-submit. Deadlines propagate from the
// X-Hyqsat-Deadline-Ms header into the solve context, SIGTERM drains
// gracefully (stop accepting, finish in-flight jobs or stop them as
// checkpointed, flush traces), and the /v1/qpu/sample endpoint serves single
// QA device accesses to HTTP clients from a deterministic server-side
// sampler under the same quota regime.
package serve

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qbatch"
	"hyqsat/internal/sat"
)

// Service bounds and seeds that no deployment tunes.
const (
	maxTenants = 128  // tenant registry cap; see tenants
	maxJobs    = 1024 // retained job records; finished jobs evict oldest-first past it
	sampleSeed = 1    // seed of the /v1/qpu/sample sampler
)

// Config configures a Service. The zero value is usable: every field has a
// production default.
type Config struct {
	// QueueDepth bounds the job queue (default 16). A full queue refuses
	// admission with 429 + Retry-After; it never buffers without bound.
	QueueDepth int
	// Workers is the solve worker count (default 2).
	Workers int
	// DefaultQuota applies to every tenant. Zero fields
	// default to 4 concurrent jobs and a 50ms device budget refilling at
	// 5ms/s.
	DefaultQuota TenantQuota
	// Solve is the base solver configuration; zero means SimulatorOptions
	// with SelfCertify on. Per-job seeds override Solve.Seed.
	Solve hyqsat.Options
	// HaveSolveDefaults marks Solve as intentionally set (a zero Options is
	// indistinguishable from "unset" otherwise).
	HaveSolveDefaults bool
	// SolveTimeout caps any single solve (default 2 minutes). Client
	// deadlines can only shorten it.
	SolveTimeout time.Duration
	// DrainGrace is how long Drain lets in-flight solves finish before
	// cancelling them into checkpointed state (default 5s).
	DrainGrace time.Duration
	// MaxBody bounds request bodies in bytes (default 8 MiB).
	MaxBody int64
	// BatchWindow is the QPU batching window: concurrent sample requests and
	// job-solve QA accesses arriving within it are co-tiled onto one device
	// program, each charged a pro-rata share of the one program's access
	// time. 0 selects qbatch.DefaultWindow; negative disables batching (one
	// program per request — the baseline the throughput bench compares
	// against).
	BatchWindow time.Duration
	// BatchMaxMembers caps how many requests share one device program
	// (default qbatch.DefaultMaxMembers).
	BatchMaxMembers int
	// BatchPace serializes device programs on a virtual device held for each
	// program's modelled access time. Only the throughput bench sets this —
	// it restores the shared-serial-device contention batching relieves.
	BatchPace bool
	// Trace receives JobEvents and solver events; nil disables tracing.
	Trace obs.Tracer
	// Metrics is the registry for service counters; nil creates a private one.
	Metrics *obs.Registry
	// Flush is called at the end of Drain (trace sink flush); may be nil.
	Flush func() error
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.DefaultQuota.MaxConcurrent == 0 {
		c.DefaultQuota.MaxConcurrent = 4
	}
	if c.DefaultQuota.DeviceBudget == 0 {
		c.DefaultQuota.DeviceBudget = 50 * time.Millisecond
		if c.DefaultQuota.DeviceRefill == 0 {
			c.DefaultQuota.DeviceRefill = 5 * time.Millisecond
		}
	}
	if !c.HaveSolveDefaults {
		c.Solve = hyqsat.SimulatorOptions()
		c.Solve.SelfCertify = true
	}
	// Complete Solve as the solver will, so the sample endpoint, the
	// batching scheduler, quota charging and every job's solver agree on the
	// device they emulate and the hardware graph they co-tile.
	c.Solve = c.Solve.WithDefaults()
	if c.SolveTimeout == 0 {
		c.SolveTimeout = 2 * time.Minute
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 5 * time.Second
	}
	if c.MaxBody == 0 {
		c.MaxBody = 8 << 20
	}
	if c.Trace == nil {
		c.Trace = obs.Nop()
	}
	return c
}

// Service is the solve service: admission control in front of a bounded
// queue in front of a worker pool, plus the remote QPU sampling endpoint.
type Service struct {
	cfg     Config
	trace   obs.Tracer
	tenants *tenants
	queue   chan *job

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // insertion order, for bounded retention
	idem     map[string]string // idempotency key -> job id
	seq      int64
	draining bool

	// admitted, when a test sets it, runs after a submit passes admission
	// and before it relocks to create its job: the window in which a
	// racing submit with the same idempotency key can win.
	admitted func()

	drainCh   chan struct{} // closed when drain starts; workers finish the queue and exit
	hardDrain atomic.Bool   // set past the grace period: jobs checkpoint instead of solving
	wg        sync.WaitGroup

	sampler *anneal.Sampler // serves /v1/qpu/sample; safe for concurrent use
	samples *idemCache      // response replay cache for the sample endpoint

	// batcher is the shared QPU access path: the sample endpoint and the job
	// workers' hybrid solves all submit through it, so concurrent requests
	// from either side co-tile onto one device program.
	batcher *qbatch.Scheduler
	// satPool recycles CDCL solver state across jobs on the worker hot path.
	satPool *sat.Pool

	m serviceMetrics
}

type serviceMetrics struct {
	accepted     *obs.Counter
	rejected     *obs.Counter
	done         *obs.Counter
	failed       *obs.Counter
	checkpointed *obs.Counter
	queueDepth   *obs.Gauge
	qpuSamples   *obs.Counter
	qpuRejected  *obs.Counter
	qpuReplays   *obs.Counter
	deviceBusyNs *obs.Counter
}

// New creates the service and starts its workers.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Service{
		cfg:     cfg,
		trace:   cfg.Trace,
		tenants: newTenants(maxTenants, cfg.DefaultQuota, time.Now),
		queue:   make(chan *job, cfg.QueueDepth),
		jobs:    make(map[string]*job),
		idem:    make(map[string]string),
		drainCh: make(chan struct{}),
		sampler: anneal.NewSampler(cfg.Solve.Schedule, cfg.Solve.Noise, sampleSeed),
		samples: newIdemCache(4096),
		m: serviceMetrics{
			accepted:     reg.Counter("serve_jobs_accepted"),
			rejected:     reg.Counter("serve_jobs_rejected"),
			done:         reg.Counter("serve_jobs_done"),
			failed:       reg.Counter("serve_jobs_failed"),
			checkpointed: reg.Counter("serve_jobs_checkpointed"),
			queueDepth:   reg.Gauge("serve_queue_depth"),
			qpuSamples:   reg.Counter("serve_qpu_samples"),
			qpuRejected:  reg.Counter("serve_qpu_rejected"),
			qpuReplays:   reg.Counter("serve_qpu_replays"),
			deviceBusyNs: reg.Counter("serve_qpu_device_ns"),
		},
	}
	s.satPool = sat.NewPool()
	s.batcher = qbatch.New(s.sampler, cfg.Solve.Hardware, qbatch.Config{
		Window:     cfg.BatchWindow,
		MaxMembers: cfg.BatchMaxMembers,
		Timing:     cfg.Solve.Timing,
		Pace:       cfg.BatchPace,
		Trace:      cfg.Trace,
		Metrics:    reg,
	})
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Draining reports whether Drain has started.
func (s *Service) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit admits a solve job: CNF parse, idempotency replay, tenant
// concurrency quota, bounded queue. The error is always a typed
// *AdmissionError on refusal. replayed reports that the view is the job an
// earlier submit with the same tenant and idempotency key created; of
// concurrent submits sharing a key that pass admission, exactly one creates
// the job and the rest give their slot back and replay it.
func (s *Service) Submit(tenant, idemKey string, req SubmitRequest, deadline time.Time) (view JobView, replayed bool, err error) {
	formula, err := cnf.ParseDIMACSString(req.CNF)
	if err != nil {
		return JobView{}, false, &AdmissionError{Status: 400, Tag: "bad_cnf", Detail: err.Error()}
	}
	key := tenant + "\x00" + idemKey

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return JobView{}, false, &AdmissionError{Status: 503, Tag: "draining", RetryAfter: s.cfg.DrainGrace}
	}
	if j, ok := s.idemJobLocked(idemKey, key); ok {
		s.mu.Unlock()
		return replay(j)
	}
	s.mu.Unlock()

	if err := s.tenants.AdmitJob(tenant); err != nil {
		s.m.rejected.Inc()
		var qe *QuotaError
		if errors.As(err, &qe) {
			s.emitJob("", tenant, "rejected", "", qe.Resource, 0, 0)
			return JobView{}, false, admissionFromQuota(qe)
		}
		return JobView{}, false, &AdmissionError{Status: 500, Tag: "internal", Detail: err.Error()}
	}
	if s.admitted != nil {
		s.admitted()
	}

	s.mu.Lock()
	if s.draining {
		// Drain started between the checks; give the slot back.
		s.mu.Unlock()
		s.tenants.FinishJob(tenant)
		return JobView{}, false, &AdmissionError{Status: 503, Tag: "draining", RetryAfter: s.cfg.DrainGrace}
	}
	if j, ok := s.idemJobLocked(idemKey, key); ok {
		// A racing submit with the same key won between the checks; give
		// the slot back and replay its job.
		s.mu.Unlock()
		s.tenants.FinishJob(tenant)
		return replay(j)
	}
	s.seq++
	j := &job{
		id:       fmt.Sprintf("j-%d", s.seq),
		tenant:   tenant,
		idemKey:  idemKey,
		req:      req,
		formula:  formula,
		accepted: time.Now(),
		deadline: deadline,
		state:    StateQueued,
	}
	select {
	case s.queue <- j:
	default:
		s.seq-- // the id was never visible
		s.mu.Unlock()
		s.tenants.FinishJob(tenant)
		s.m.rejected.Inc()
		s.emitJob("", tenant, "rejected", "", "queue_full", 0, 0)
		return JobView{}, false, &AdmissionError{Status: 429, Tag: "queue_full", RetryAfter: time.Second}
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if idemKey != "" {
		s.idem[key] = j.id
	}
	s.evictLocked()
	s.m.queueDepth.Set(int64(len(s.queue)))
	s.mu.Unlock()

	s.m.accepted.Inc()
	s.emitJob(j.id, tenant, "accepted", "", "", 0, 0)
	return j.view(), false, nil
}

// idemJobLocked looks up the job an earlier submit created under an
// idempotency key (key is the tenant-qualified form of idemKey). ok reports
// that there was one; j is nil when it has since been evicted.
func (s *Service) idemJobLocked(idemKey, key string) (j *job, ok bool) {
	if idemKey == "" {
		return nil, false
	}
	id, ok := s.idem[key]
	if !ok {
		return nil, false
	}
	return s.jobs[id], true
}

// replay answers a submit whose idempotency key names job j, or names a job
// that aged out when j is nil.
func replay(j *job) (JobView, bool, error) {
	if j == nil {
		return JobView{}, false, &AdmissionError{Status: 409, Tag: "idempotency_evicted",
			Detail: "the original job aged out; use a fresh key"}
	}
	return j.view(), true, nil
}

// Job returns the view of a job by id.
func (s *Service) Job(id string) (JobView, bool) {
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		return JobView{}, false
	}
	return j.view(), true
}

// evictLocked enforces maxJobs by dropping the oldest finished jobs (and
// their idempotency keys). Unfinished jobs are never evicted; the cap can be
// transiently exceeded while everything retained is still live.
func (s *Service) evictLocked() {
	for len(s.jobs) > maxJobs {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			if j == nil {
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
			j.mu.Lock()
			finished := j.state == StateDone || j.state == StateFailed || j.state == StateCheckpointed
			j.mu.Unlock()
			if finished {
				delete(s.jobs, id)
				if j.idemKey != "" {
					delete(s.idem, j.tenant+"\x00"+j.idemKey)
				}
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// worker pulls jobs until drain starts, then finishes whatever is queued.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			s.run(j)
		case <-s.drainCh:
			for {
				select {
				case j := <-s.queue:
					s.run(j)
				default:
					return
				}
			}
		}
	}
}

// run executes one job. The solve context carries the client deadline capped
// by SolveTimeout; drain cancels it past the grace period.
func (s *Service) run(j *job) {
	s.m.queueDepth.Set(int64(len(s.queue)))
	deadline := time.Now().Add(s.cfg.SolveTimeout)
	if !j.deadline.IsZero() && j.deadline.Before(deadline) {
		deadline = j.deadline
	}
	ctx, cancel := context.WithDeadline(context.Background(), deadline)
	defer cancel()

	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	j.mu.Unlock()
	if s.hardDrain.Load() {
		// The grace period already expired: don't start real work, let the
		// solve observe a cancelled context immediately and checkpoint.
		cancel()
	}
	s.emitJob(j.id, j.tenant, "started", "", "", j.started.Sub(j.accepted).Milliseconds(), 0)

	opts := s.cfg.Solve
	opts.Seed = j.req.Seed
	opts.Trace = s.trace
	opts.SolveID = j.id
	// Jobs share the service's batching QPU scheduler — their QA accesses
	// co-tile with each other and with /v1/qpu/sample traffic — and draw
	// their CDCL core from the solver pool. QA guidance only steers
	// heuristics, so sharing the device never affects verdict correctness.
	if opts.Backend == nil {
		opts.Backend = s.batcher
	}
	opts.SatPool = s.satPool
	solver := hyqsat.New(j.formula, opts)
	r := solver.SolveContext(ctx)
	solver.Release()

	j.mu.Lock()
	j.ended = time.Now()
	j.result = r
	j.cancel = nil
	state := StateDone
	switch {
	case r.Err != nil:
		// The solve was interrupted (drain or deadline), not wrong: the job
		// is checkpointed — its partial stats stand, but no solver state is
		// saved. A same-key resubmit returns this record; a new key solves
		// from scratch.
		state = StateCheckpointed
		j.err = r.Err
	case r.Status == sat.Unknown:
		state = StateFailed
		j.err = errors.New("solve exhausted its budget inconclusively")
	}
	j.state = state
	runMs := j.ended.Sub(j.started).Milliseconds()
	queueMs := j.started.Sub(j.accepted).Milliseconds()
	j.mu.Unlock()

	verdict, errStr := "", ""
	switch state {
	case StateDone:
		s.m.done.Inc()
		switch r.Status {
		case sat.Sat:
			verdict = "sat"
		case sat.Unsat:
			verdict = "unsat"
		}
	case StateFailed:
		s.m.failed.Inc()
		errStr = "inconclusive"
	case StateCheckpointed:
		s.m.checkpointed.Inc()
		errStr = r.Err.Error()
	}
	s.emitJob(j.id, j.tenant, state, verdict, errStr, queueMs, runMs)
	s.tenants.FinishJob(j.tenant)
}

func (s *Service) emitJob(id, tenant, state, verdict, errStr string, queueMs, runMs int64) {
	if !s.trace.Enabled() {
		return
	}
	s.trace.Emit(obs.JobEvent{
		Job: id, Tenant: tenant, State: state,
		Verdict: verdict, Err: errStr, QueueMs: queueMs, RunMs: runMs,
	})
}

// Drain gracefully shuts the service down: admission starts refusing with
// 503 "draining", workers finish (or checkpoint) everything already
// admitted, and the trace sink is flushed. In-flight solves get DrainGrace
// to finish naturally; past it they are cancelled, which lands them in
// checkpointed state. The context bounds the total wait.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()

	grace := time.NewTimer(s.cfg.DrainGrace)
	defer grace.Stop()
	select {
	case <-done:
	case <-ctx.Done():
		s.cancelRunning()
		<-done
	case <-grace.C:
		s.cancelRunning()
		select {
		case <-done:
		case <-ctx.Done():
			<-done
		}
	}
	if s.cfg.Flush != nil {
		if err := s.cfg.Flush(); err != nil {
			return fmt.Errorf("drain: trace flush: %w", err)
		}
	}
	return ctx.Err()
}

// cancelRunning cancels every in-flight solve; the workers then fall through
// their queues quickly (each remaining job is started, immediately hits its
// cancelled context, and checkpoints).
func (s *Service) cancelRunning() {
	s.hardDrain.Store(true)
	s.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		j.mu.Lock()
		if j.cancel != nil {
			j.cancel()
		}
		j.mu.Unlock()
	}
}

// AdmissionError is a typed admission refusal carrying its HTTP shape.
type AdmissionError struct {
	Status     int
	Tag        string // stable machine tag: "queue_full", "quota", "draining", ...
	Detail     string
	RetryAfter time.Duration
}

func (e *AdmissionError) Error() string {
	if e.Detail != "" {
		return e.Tag + ": " + e.Detail
	}
	return e.Tag
}

func admissionFromQuota(qe *QuotaError) *AdmissionError {
	ae := &AdmissionError{Tag: "quota", Detail: qe.Error(), RetryAfter: qe.RetryAfter}
	if qe.IsPermanent {
		ae.Status = 403
	} else {
		ae.Status = 429
		if ae.RetryAfter == 0 {
			ae.RetryAfter = time.Second
		}
	}
	return ae
}

// retryAfterSeconds rounds a Retry-After hint up to whole seconds as the
// header requires.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
