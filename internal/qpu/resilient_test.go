package qpu

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/obs"
	"hyqsat/internal/perfgate"
)

// fastConfig is a Resilient config with no real waiting: instant backoff
// sleep and a fake clock driving the breaker cooldown.
func fastConfig(clock *fakeClock) Config {
	return Config{
		MaxAttempts:      1,
		BreakerThreshold: 2,
		BreakerCooldown:  10 * time.Millisecond,
		Clock:            clock.Now,
		Sleep:            instantSleep,
	}
}

// TestBreakerStateMachine walks the full closed → open → half-open → closed
// cycle, plus the half-open → open re-trip, against a scripted backend and a
// fake clock. Transitions are cross-checked against the emitted BreakerEvents.
func TestBreakerStateMachine(t *testing.T) {
	ep := testEmbeddedProblem(t)
	fail := &FaultError{Fault: "transient"}
	sc := &scripted{sampler: testSampler(),
		errs: []error{fail, fail, fail, nil}} // two trips it, probe 1 fails, probe 2 heals
	clock := &fakeClock{now: time.Unix(0, 0)}
	ring := obs.NewRing(64)
	cfg := fastConfig(clock)
	cfg.Trace = ring
	r := NewResilient(sc, cfg)
	ctx := context.Background()

	// Two consecutive failures trip the breaker open.
	for i := 0; i < 2; i++ {
		if _, err := r.Submit(ctx, ep, 1); !errors.Is(err, fail) {
			t.Fatalf("submit %d: err=%v, want the scripted fault", i, err)
		}
	}
	if got := r.State(); got != BreakerOpen {
		t.Fatalf("after %d failures state=%v, want open", 2, got)
	}

	// While open and inside the cooldown, calls are rejected without touching
	// the backend.
	before := sc.Calls()
	if _, err := r.Submit(ctx, ep, 1); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker returned %v, want ErrBreakerOpen", err)
	}
	if sc.Calls() != before {
		t.Fatal("open breaker touched the backend")
	}
	if v := r.Metrics().Counter("qpu_breaker_rejected").Value(); v != 1 {
		t.Fatalf("qpu_breaker_rejected=%d, want 1", v)
	}

	// Cooldown elapses; the half-open probe fails, re-opening the breaker.
	clock.Advance(11 * time.Millisecond)
	if _, err := r.Submit(ctx, ep, 1); !errors.Is(err, fail) {
		t.Fatalf("failed probe returned %v, want the scripted fault", err)
	}
	if got := r.State(); got != BreakerOpen {
		t.Fatalf("after failed probe state=%v, want open again", got)
	}

	// Another cooldown; this probe succeeds and closes the breaker.
	clock.Advance(11 * time.Millisecond)
	if _, err := r.Submit(ctx, ep, 1); err != nil {
		t.Fatalf("healing probe failed: %v", err)
	}
	if got := r.State(); got != BreakerClosed {
		t.Fatalf("after healing probe state=%v, want closed", got)
	}

	// The event stream shows the exact transition sequence.
	var transitions []string
	for _, te := range ring.Events() {
		if be, ok := te.E.(obs.BreakerEvent); ok {
			transitions = append(transitions, be.From+">"+be.To)
		}
	}
	want := []string{"closed>open", "open>half-open", "half-open>open", "open>half-open", "half-open>closed"}
	if strings.Join(transitions, " ") != strings.Join(want, " ") {
		t.Fatalf("transitions %v, want %v", transitions, want)
	}
}

// TestBreakerHalfOpenSingleProbe checks the half-open state admits exactly
// one probe at a time: while one is in flight, further calls are rejected.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	clock := &fakeClock{now: time.Unix(0, 0)}
	r := NewResilient(&scripted{sampler: testSampler()}, fastConfig(clock))
	r.mu.Lock()
	r.state = BreakerOpen
	r.openedAt = clock.Now().Add(-time.Hour)
	r.clear.Store(false) // as every state change under mu does
	r.mu.Unlock()

	if err := r.allow(); err != nil {
		t.Fatalf("first probe rejected: %v", err)
	}
	if got := r.State(); got != BreakerHalfOpen {
		t.Fatalf("state=%v, want half-open", got)
	}
	if err := r.allow(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("second concurrent probe got %v, want ErrBreakerOpen", err)
	}
	r.onSuccess()
	if err := r.allow(); err != nil {
		t.Fatalf("closed breaker rejected a call: %v", err)
	}
}

// TestRetryBackoffDeterministic checks the retry loop: a backend that fails
// twice then succeeds is retried to success, the backoff sequence is jittered
// exponential within [d/2, d], and the same seed reproduces it exactly.
func TestRetryBackoffDeterministic(t *testing.T) {
	ep := testEmbeddedProblem(t)
	run := func(seed int64) []int64 {
		fail := &FaultError{Fault: "transient"}
		ring := obs.NewRing(16)
		r := NewResilient(
			&scripted{sampler: testSampler(), errs: []error{fail, fail, nil}},
			Config{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: 4 * time.Millisecond,
				Seed: seed, Trace: ring, Sleep: instantSleep})
		if _, err := r.Submit(context.Background(), ep, 1); err != nil {
			t.Fatalf("submit with 2 retries available failed: %v", err)
		}
		var backoffs []int64
		for _, te := range ring.Events() {
			if re, ok := te.E.(obs.QPURetryEvent); ok {
				backoffs = append(backoffs, re.BackoffNs)
			}
		}
		return backoffs
	}

	got := run(7)
	if len(got) != 2 {
		t.Fatalf("got %d retry events, want 2", len(got))
	}
	for i, base := range []int64{int64(time.Millisecond), int64(2 * time.Millisecond)} {
		if got[i] < base/2 || got[i] > base {
			t.Fatalf("backoff %d = %dns, want within [%d, %d]", i, got[i], base/2, base)
		}
	}
	if again := run(7); got[0] != again[0] || got[1] != again[1] {
		t.Fatalf("same seed gave different jitter: %v vs %v", got, again)
	}
	if other := run(8); got[0] == other[0] && got[1] == other[1] {
		t.Fatalf("different seeds gave identical jitter %v (suspicious)", got)
	}
}

// TestRetryGivesUpAfterMaxAttempts checks exhaustion: the last error is
// surfaced and the wasted modelled device time is charged per failed attempt.
func TestRetryGivesUpAfterMaxAttempts(t *testing.T) {
	ep := testEmbeddedProblem(t)
	fail := &FaultError{Fault: "transient"}
	r := NewResilient(
		&scripted{sampler: testSampler(), errs: []error{fail, fail, fail, fail}},
		Config{MaxAttempts: 3, BreakerThreshold: 100, Sleep: instantSleep})
	if _, err := r.Submit(context.Background(), ep, 2); !errors.Is(err, fail) {
		t.Fatalf("err=%v, want the backend fault", err)
	}
	if v := r.Metrics().Counter("qpu_attempt_failures").Value(); v != 3 {
		t.Fatalf("qpu_attempt_failures=%d, want 3", v)
	}
	want := 3 * anneal.DWave2000QTiming().AccessTime(2).Nanoseconds()
	if v := r.Metrics().Counter("qpu_wasted_device_ns").Value(); v != want {
		t.Fatalf("qpu_wasted_device_ns=%d, want %d", v, want)
	}
}

// TestPanicRecovery checks a panicking backend is contained: the panic
// becomes a FaultError, the next attempt proceeds, and the counter records it.
func TestPanicRecovery(t *testing.T) {
	ep := testEmbeddedProblem(t)
	r := NewResilient(
		&scripted{sampler: testSampler(), panicAt: map[int]bool{0: true}},
		Config{MaxAttempts: 2, Sleep: instantSleep})
	rs, err := r.Submit(context.Background(), ep, 1)
	if err != nil || len(rs.Samples) != 1 {
		t.Fatalf("submit after recovered panic: rs=%d samples, err=%v", len(rs.Samples), err)
	}
	if v := r.Metrics().Counter("qpu_panics_recovered").Value(); v != 1 {
		t.Fatalf("qpu_panics_recovered=%d, want 1", v)
	}

	// With no retry budget the recovered panic surfaces as a fault error.
	r2 := NewResilient(
		&scripted{sampler: testSampler(), panicAt: map[int]bool{0: true}},
		Config{MaxAttempts: 1, Sleep: instantSleep})
	var fe *FaultError
	if _, err := r2.Submit(context.Background(), ep, 1); !errors.As(err, &fe) || fe.Fault != "panic" {
		t.Fatalf("err=%v, want a panic FaultError", err)
	}
}

// badShape is a backend returning well-typed but invalid read sets.
type badShape struct{ sampler *anneal.Sampler }

func (b *badShape) Name() string { return "badshape" }
func (b *badShape) Submit(_ context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	rs := b.sampler.Sample(ep, reads)
	rs.Samples = rs.Samples[:0] // readout lost in transport
	return rs, nil
}

// TestResilientValidatesReadSets checks a malformed read set counts as a
// failed attempt and surfaces as a ReadSetError, never as a "success".
func TestResilientValidatesReadSets(t *testing.T) {
	ep := testEmbeddedProblem(t)
	r := NewResilient(&badShape{sampler: testSampler()},
		Config{MaxAttempts: 2, Sleep: instantSleep})
	var rse *anneal.ReadSetError
	if _, err := r.Submit(context.Background(), ep, 1); !errors.As(err, &rse) {
		t.Fatalf("err=%v, want a *anneal.ReadSetError", err)
	}
}

// TestDeadlinePropagation checks the caller's context reaches the backend and
// a cancelled caller aborts the retry loop rather than burning attempts.
func TestDeadlinePropagation(t *testing.T) {
	ep := testEmbeddedProblem(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewResilient(&scripted{sampler: testSampler()}, Config{Sleep: instantSleep})
	if _, err := r.Submit(ctx, ep, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err=%v, want context.Canceled", err)
	}
}

// backendFunc adapts a function to the Backend interface.
type backendFunc func(context.Context, *anneal.EmbeddedProblem, int) (anneal.ReadSet, error)

func (f backendFunc) Name() string { return "func" }
func (f backendFunc) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	return f(ctx, ep, reads)
}

// TestResilientHappyPathAllocs is the alloc half of the overhead gate: on the
// happy path (closed breaker, first attempt succeeds, the CLI's zero Config)
// the Resilient wrapper must add zero allocations over calling the backend
// directly.
func TestResilientHappyPathAllocs(t *testing.T) {
	ep := testEmbeddedProblem(t)
	ctx := context.Background()

	direct := NewLocal(testSampler())
	wrapped := NewResilient(NewLocal(testSampler()), Config{})
	// Warm scratch buffers before measuring.
	if _, err := direct.Submit(ctx, ep, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := wrapped.Submit(ctx, ep, 1); err != nil {
		t.Fatal(err)
	}

	base := testing.AllocsPerRun(50, func() {
		if _, err := direct.Submit(ctx, ep, 1); err != nil {
			t.Fatal(err)
		}
	})
	resil := testing.AllocsPerRun(50, func() {
		if _, err := wrapped.Submit(ctx, ep, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/op: direct=%.1f resilient=%.1f", base, resil)
	if resil > base {
		t.Fatalf("Resilient adds %.1f allocs/op on the happy path, want 0", resil-base)
	}
}

// TestResilientOverhead is the time half of the overhead gate check.sh runs:
// the happy-path CPU time per submit through the Resilient wrapper must stay
// within 1% of the direct backend's, as the median of per-round paired
// ratios (same rule as the anneal kernel gate); opt-in via
// HYQSAT_PERF_GATE=1. Both sides submit to one sampler, so the wrapper is
// the only difference between them. It bounds CPU work, not latency: time
// the wrapper spends blocked or waiting does not count (perfgate.Overhead).
func TestResilientOverhead(t *testing.T) {
	if os.Getenv("HYQSAT_PERF_GATE") == "" {
		t.Skip("perf gate disabled; set HYQSAT_PERF_GATE=1")
	}
	ep := testEmbeddedProblem(t)
	ctx := context.Background()
	direct := NewLocal(testSampler())
	wrapped := NewResilient(direct, Config{})
	submit := func(b Backend) func(int) {
		return func(n int) {
			for j := 0; j < n; j++ {
				if _, err := b.Submit(ctx, ep, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	ratio, ratios := perfgate.Overhead(1001, submit(direct), submit(wrapped))
	t.Logf("happy path resilient/direct: median ratio %.4f over %d rounds", ratio, len(ratios))
	if ratio > 1.01 {
		t.Fatalf("Resilient costs %.2f%% on the happy path, budget is 1%%", 100*(ratio-1))
	}
}
