package hyqsat

import (
	"context"
	"errors"
	"testing"
	"time"

	"hyqsat/internal/gen"
	"hyqsat/internal/obs"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
)

// chaosOptions is a hybrid configuration for fault testing: enough warm-up
// iterations that the QA path is genuinely exercised, self-certification on so
// every conclusive verdict is independently verified.
func chaosOptions(seed int64) Options {
	o := SimulatorOptions()
	o.Seed = seed
	o.SelfCertify = true
	o.WarmupIterations = 24
	return o
}

// chaosWrap decorates the solver's backend the way cmd/hyqsat does — fault
// injection under the Resilient layer — but with instant sleeps and a tiny
// cooldown so chaos runs take milliseconds. The second return fetches the
// Resilient handle once the solver has applied the wrap, for breaker-state
// assertions.
func chaosWrap(profile qpu.Profile, seed int64, trace obs.Tracer) (func(qpu.Backend) qpu.Backend, func() *qpu.Resilient) {
	var res *qpu.Resilient
	wrap := func(b qpu.Backend) qpu.Backend {
		fi := qpu.NewFaultInjector(b, profile, seed)
		fi.Trace = trace
		fi.Sleep = func(ctx context.Context, _ time.Duration) error { return ctx.Err() }
		res = qpu.NewResilient(fi, qpu.Config{
			MaxAttempts:      2,
			BreakerThreshold: 3,
			BreakerCooldown:  time.Nanosecond,
			Seed:             seed,
			Trace:            trace,
			Sleep:            func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
		})
		return res
	}
	return wrap, func() *qpu.Resilient { return res }
}

// TestChaosMatrix runs the full hybrid solver under every fault profile on a
// small instance family and requires every answer to be not merely correct
// but certified: SAT models are model-checked and UNSAT verdicts RUP-verified
// by SelfCertify, which any silent corruption of the QA feedback path would
// break.
func TestChaosMatrix(t *testing.T) {
	instances := []*gen.Instance{
		gen.SatisfiableRandom3SAT(12, 40, 5),
		gen.SatisfiableRandom3SAT(16, 60, 6),
		gen.CmpAdd(2, 7), // UNSAT by construction
	}
	for name, profile := range qpu.Profiles() {
		profile := profile
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, inst := range instances {
				wrap, _ := chaosWrap(profile, 99, obs.Nop())
				o := chaosOptions(11)
				o.WrapBackend = wrap
				r := New(inst.Formula, o).Solve()
				if inst.Expected != sat.Unknown && r.Status != inst.Expected {
					t.Fatalf("%s under %q: status=%v, want %v", inst.Name, name, r.Status, inst.Expected)
				}
				if r.Status != sat.Unknown && !r.Certified {
					t.Fatalf("%s under %q: verdict not certified: %v", inst.Name, name, r.CertErr)
				}
			}
		})
	}
}

// TestOutageDegradesToCDCL checks the 100%-outage profile: every QA access
// fails, every warm-up iteration degrades to pure CDCL, and the solve still
// terminates with a certified answer. The degradation is visible in the
// counters and in the emitted DegradeEvents.
func TestOutageDegradesToCDCL(t *testing.T) {
	ring := obs.NewRing(256)
	wrap, _ := chaosWrap(qpu.Profiles()["outage"], 3, ring)
	inst := gen.SatisfiableRandom3SAT(14, 50, 8)
	o := chaosOptions(21)
	o.WrapBackend = wrap
	o.Trace = ring // DegradeEvents come from the solver's tracer, not the backend's
	r := New(inst.Formula, o).Solve()
	if r.Status != sat.Sat || !r.Certified {
		t.Fatalf("outage solve: status=%v certified=%v (%v)", r.Status, r.Certified, r.CertErr)
	}
	if r.Stats.QACalls != 0 {
		t.Fatalf("a dead backend delivered %d QA calls", r.Stats.QACalls)
	}
	if r.Stats.QADegraded == 0 {
		t.Fatal("no degraded iterations counted under total outage")
	}
	degrades := 0
	for _, te := range ring.Events() {
		if _, ok := te.E.(obs.DegradeEvent); ok {
			degrades++
		}
	}
	if int64(degrades) != r.Stats.QADegraded {
		t.Fatalf("degrade events (%d) disagree with the counter (%d)", degrades, r.Stats.QADegraded)
	}
}

// TestBreakerRecoveryDuringSolve drives the deterministic recovery shape: the
// first submissions fail (FailFirst), the breaker trips open, the cooldown
// elapses, a probe succeeds and QA guidance resumes — all within one solve,
// all visible in the breaker events and the final counters.
func TestBreakerRecoveryDuringSolve(t *testing.T) {
	ring := obs.NewRing(512)
	// MaxAttempts 2 retries inside each submission, so FailFirst 6 means 3
	// failed submissions — exactly the trip threshold.
	wrap, getRes := chaosWrap(qpu.Profile{FailFirst: 6}, 4, ring)
	inst := gen.SatisfiableRandom3SAT(16, 60, 9)
	o := chaosOptions(31)
	o.WrapBackend = wrap
	r := New(inst.Formula, o).Solve()
	if r.Status != sat.Sat || !r.Certified {
		t.Fatalf("recovery solve: status=%v certified=%v (%v)", r.Status, r.Certified, r.CertErr)
	}
	if r.Stats.QADegraded == 0 {
		t.Fatal("no iterations degraded while the backend was down")
	}
	if r.Stats.QACalls == 0 {
		t.Fatal("QA guidance never resumed after the fault window")
	}
	if got := getRes().State(); got != qpu.BreakerClosed {
		t.Fatalf("final breaker state %v, want closed", got)
	}
	var transitions []string
	for _, te := range ring.Events() {
		if be, ok := te.E.(obs.BreakerEvent); ok {
			transitions = append(transitions, be.From+">"+be.To)
		}
	}
	saw := func(want string) bool {
		for _, tr := range transitions {
			if tr == want {
				return true
			}
		}
		return false
	}
	if !saw("closed>open") || !saw("open>half-open") || !saw("half-open>closed") {
		t.Fatalf("breaker recovery cycle missing from transitions %v", transitions)
	}
}

// TestSolveContextCancelled checks external cancellation: the solve stops at
// the next safe point, reports Unknown with the cause in Result.Err, and the
// stats snapshot is still coherent.
func TestSolveContextCancelled(t *testing.T) {
	inst := gen.SatisfiableRandom3SAT(16, 60, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := New(inst.Formula, chaosOptions(41)).SolveContext(ctx)
	if r.Status != sat.Unknown {
		t.Fatalf("cancelled solve returned %v, want Unknown", r.Status)
	}
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("Result.Err=%v, want context.Canceled", r.Err)
	}
}

// TestChaosPreservesDeterminism checks fault handling does not leak into the
// solver's randomness: two solves with identical seeds and profiles agree on
// status and counters.
func TestChaosPreservesDeterminism(t *testing.T) {
	inst := gen.SatisfiableRandom3SAT(14, 50, 12)
	run := func() Result {
		wrap, _ := chaosWrap(qpu.Profiles()["flaky"], 77, obs.Nop())
		o := chaosOptions(51)
		o.WrapBackend = wrap
		return New(inst.Formula, o).Solve()
	}
	a, b := run(), run()
	if a.Status != b.Status || a.Stats.QACalls != b.Stats.QACalls ||
		a.Stats.QADegraded != b.Stats.QADegraded || a.Stats.SAT.Conflicts != b.Stats.SAT.Conflicts {
		t.Fatalf("identical chaos runs diverged:\n  a=%+v\n  b=%+v", a.Stats, b.Stats)
	}
}
