package qpu

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/obs"
)

// BreakerState is the circuit-breaker state.
type BreakerState int32

// Circuit-breaker states: Closed admits traffic, Open rejects it without
// touching the backend, HalfOpen admits exactly one probe after the cooldown.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String implements fmt.Stringer with the conventional state names.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return fmt.Sprintf("BreakerState(%d)", int32(s))
}

// Config tunes the Resilient decorator. The zero value is completed with
// production defaults by NewResilient. There is no per-attempt timeout: every
// attempt runs on the caller's context, so the caller's deadline bounds the
// whole Submit, retries and backoff included.
type Config struct {
	// MaxAttempts bounds tries per Submit, including the first (default 3).
	MaxAttempts int
	// BackoffBase is the first retry's backoff; it doubles per attempt up to
	// BackoffCap, with deterministic jitter in [d/2, d] drawn from Seed
	// (defaults 1ms / 50ms).
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// BreakerThreshold is the consecutive-failed-submission count that trips
	// the breaker open (default 5); BreakerCooldown is how long it stays open
	// before admitting a half-open probe (default 1s).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Timing prices failed attempts: every attempt that dies after reaching
	// the device is charged AccessTime(reads) of modelled device time to the
	// qpu_wasted_device_ns counter (defaults to D-Wave 2000Q timing).
	Timing anneal.TimingModel
	// Seed drives the retry jitter (deterministic for a fixed seed).
	Seed int64
	// Trace receives BreakerEvents and QPURetryEvents when non-nil + enabled.
	Trace obs.Tracer
	// Metrics is the registry the wrapper registers its counters in; nil
	// creates a private registry (retrievable via Resilient.Metrics).
	Metrics *obs.Registry
	// Clock and Sleep are injectable for deterministic tests: Clock feeds the
	// breaker cooldown (default monotonicNow), Sleep implements the retry
	// backoff (default SleepContext).
	Clock func() time.Time
	Sleep func(ctx context.Context, d time.Duration) error
}

func (c Config) withDefaults() Config {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = time.Millisecond
	}
	if c.BackoffCap <= 0 {
		c.BackoffCap = 50 * time.Millisecond
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Timing == (anneal.TimingModel{}) {
		c.Timing = anneal.DWave2000QTiming()
	}
	if c.Trace == nil {
		c.Trace = obs.Nop()
	}
	if c.Metrics == nil {
		c.Metrics = obs.NewRegistry()
	}
	if c.Clock == nil {
		c.Clock = monotonicNow
	}
	if c.Sleep == nil {
		c.Sleep = SleepContext
	}
	return c
}

// monoStart anchors monotonicNow.
var monoStart = time.Now()

// monotonicNow is the default Clock: the current time from a single read of
// the monotonic clock, where time.Now reads the wall clock as well. Its
// results compare and subtract exactly like time.Now's (the comparisons use
// the monotonic reading); only their wall-clock part is monoStart's plus
// the elapsed time, so it does not follow steps of the system clock.
func monotonicNow() time.Time { return monoStart.Add(time.Since(monoStart)) }

// resilientMetrics are the wrapper's registry handles.
type resilientMetrics struct {
	submits     *obs.Counter // Submit calls admitted past the breaker
	failures    *obs.Counter // failed attempts (before retries succeed or give up)
	retries     *obs.Counter // backoff-then-retry transitions
	panics      *obs.Counter // panics recovered from the backend
	rejected    *obs.Counter // Submits rejected by the open breaker
	transitions *obs.Counter // breaker state transitions
	wastedNs    *obs.Counter // modelled device time burnt by failed attempts
	state       *obs.Gauge   // current breaker state (0 closed, 1 open, 2 half-open)
}

// Resilient decorates a Backend with the reliability layer a remote QPU
// needs: every attempt runs on the caller's context (its deadline bounds the
// whole Submit), retry with exponential backoff and deterministic jitter, a
// closed/open/half-open circuit breaker, panic recovery, and read-set
// validation. On the happy path (closed breaker, first attempt succeeds) it
// adds zero allocations and negligible time over calling the inner backend
// directly — enforced by check.sh gates.
type Resilient struct {
	inner Backend
	cfg   Config
	m     resilientMetrics

	calls atomic.Int64
	// clear mirrors "closed breaker, no failure streak" — the state in which
	// allow admits and onSuccess changes nothing — so the happy path takes
	// no lock. Written under mu whenever state or fails change.
	clear atomic.Bool

	mu       sync.Mutex // guards breaker state and jitter RNG
	state    BreakerState
	fails    int // consecutive failed submissions
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	rng      *rand.Rand
}

// NewResilient wraps inner with the reliability layer.
func NewResilient(inner Backend, cfg Config) *Resilient {
	cfg = cfg.withDefaults()
	r := &Resilient{
		inner: inner,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ 0x7e57ab1e)),
		m: resilientMetrics{
			submits:     cfg.Metrics.Counter("qpu_submits"),
			failures:    cfg.Metrics.Counter("qpu_attempt_failures"),
			retries:     cfg.Metrics.Counter("qpu_retries"),
			panics:      cfg.Metrics.Counter("qpu_panics_recovered"),
			rejected:    cfg.Metrics.Counter("qpu_breaker_rejected"),
			transitions: cfg.Metrics.Counter("qpu_breaker_transitions"),
			wastedNs:    cfg.Metrics.Counter("qpu_wasted_device_ns"),
			state:       cfg.Metrics.Gauge("qpu_breaker_state"),
		},
	}
	r.clear.Store(true)
	return r
}

// Name implements Backend.
func (r *Resilient) Name() string { return "resilient(" + r.inner.Name() + ")" }

// Metrics returns the registry holding the wrapper's counters.
func (r *Resilient) Metrics() *obs.Registry { return r.cfg.Metrics }

// State returns the current breaker state.
func (r *Resilient) State() BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.state
}

// Submit implements Backend: it admits the call through the breaker, tries
// the inner backend up to MaxAttempts times with backoff between attempts,
// validates every returned read set, and records the outcome in the breaker.
func (r *Resilient) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	if err := ctx.Err(); err != nil {
		return anneal.ReadSet{}, err
	}
	if err := r.allow(); err != nil {
		r.m.rejected.Inc()
		return anneal.ReadSet{}, err
	}
	r.m.submits.Inc()
	call := r.calls.Add(1) - 1
	var lastErr error
	for attempt := 0; attempt < r.cfg.MaxAttempts; attempt++ {
		if attempt > 0 {
			d := r.backoff(attempt)
			r.m.retries.Inc()
			if r.cfg.Trace.Enabled() {
				r.cfg.Trace.Emit(obs.QPURetryEvent{
					Call: call, Attempt: attempt, BackoffNs: int64(d), Err: lastErr.Error(),
				})
			}
			if err := r.cfg.Sleep(ctx, d); err != nil {
				lastErr = err
				break
			}
		}
		rs, err := r.attempt(ctx, ep, reads)
		if err == nil {
			r.onSuccess()
			return rs, nil
		}
		lastErr = err
		r.m.failures.Inc()
		// The attempt burnt real (modelled) device access time with nothing
		// to show for it; charge it so capacity accounting stays honest.
		r.m.wastedNs.Add(r.cfg.Timing.AccessTime(max(reads, 1)).Nanoseconds())
		if ctx.Err() != nil {
			break // the caller is gone; retrying serves nobody
		}
	}
	r.onFailure()
	return anneal.ReadSet{}, lastErr
}

// attempt runs one try against the inner backend on the caller's context:
// panics from the sweep kernel (or any decorator below) are recovered into
// errors, and the returned read set is shape-validated before it is allowed
// to count as a success.
func (r *Resilient) attempt(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (rs anneal.ReadSet, err error) {
	defer func() {
		if p := recover(); p != nil {
			r.m.panics.Inc()
			err = fmt.Errorf("%w: %v", &FaultError{Fault: "panic"}, p)
		}
	}()
	rs, err = r.inner.Submit(ctx, ep, reads)
	if err != nil {
		return anneal.ReadSet{}, err
	}
	if verr := anneal.ValidateReadSet(ep, &rs, reads); verr != nil {
		return anneal.ReadSet{}, verr
	}
	return rs, nil
}

// backoff returns the jittered exponential backoff before the given retry
// attempt (attempt ≥ 1): base·2^(attempt−1) capped at BackoffCap, jittered
// into [d/2, d] with the seeded RNG.
func (r *Resilient) backoff(attempt int) time.Duration {
	d := r.cfg.BackoffBase
	for i := 1; i < attempt && d < r.cfg.BackoffCap; i++ {
		d *= 2
	}
	if d > r.cfg.BackoffCap {
		d = r.cfg.BackoffCap
	}
	r.mu.Lock()
	j := d/2 + time.Duration(r.rng.Int63n(int64(d/2)+1))
	r.mu.Unlock()
	return j
}

// allow gates a Submit through the breaker, transitioning open → half-open
// when the cooldown has elapsed. It returns ErrBreakerOpen when the call must
// be rejected without touching the backend.
func (r *Resilient) allow() error {
	if r.clear.Load() {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch r.state {
	case BreakerClosed:
		return nil
	case BreakerOpen:
		if r.cfg.Clock().Sub(r.openedAt) < r.cfg.BreakerCooldown {
			return ErrBreakerOpen
		}
		r.transition(BreakerHalfOpen)
		r.probing = true
		return nil
	default: // half-open: exactly one probe at a time
		if r.probing {
			return ErrBreakerOpen
		}
		r.probing = true
		return nil
	}
}

// onSuccess records a successful submission: failure streak reset, and a
// half-open probe closes the breaker.
func (r *Resilient) onSuccess() {
	if r.clear.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails = 0
	r.probing = false
	if r.state != BreakerClosed {
		r.transition(BreakerClosed)
	}
	r.clear.Store(true)
}

// onFailure records a failed submission (all attempts exhausted): a failed
// half-open probe reopens the breaker, and a closed breaker trips once the
// consecutive-failure streak reaches the threshold.
func (r *Resilient) onFailure() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fails++
	r.clear.Store(false)
	r.probing = false
	switch r.state {
	case BreakerHalfOpen:
		r.openedAt = r.cfg.Clock()
		r.transition(BreakerOpen)
	case BreakerClosed:
		if r.fails >= r.cfg.BreakerThreshold {
			r.openedAt = r.cfg.Clock()
			r.transition(BreakerOpen)
		}
	}
}

// transition moves the breaker to a new state, with r.mu held.
func (r *Resilient) transition(to BreakerState) {
	from := r.state
	r.state = to
	r.m.state.Set(int64(to))
	r.m.transitions.Inc()
	if r.cfg.Trace.Enabled() {
		r.cfg.Trace.Emit(obs.BreakerEvent{
			Backend: r.inner.Name(), From: from.String(), To: to.String(), Failures: r.fails,
		})
	}
}
