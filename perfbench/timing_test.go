package main

import (
	"context"
	"sync"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/bench"
	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/obs"
	"hyqsat/internal/qbatch"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
)

// solveOutcome is what a decorator must leave unchanged about a solve.
type solveOutcome struct {
	status    sat.Status
	conflicts int64
	qaCalls   int
	warmup    int
	device    time.Duration
	batchNs   int64 // device time the scheduler charged, 0 over qpu.Local
}

// solveWith solves f over the solver's own qpu.Local backend (batched=false)
// or over a fresh batching scheduler, optionally through the timing
// decorator, and returns the outcome and what the decorator recorded.
func solveWith(t *testing.T, f *cnf.Formula, batched, decorated bool) (solveOutcome, qpuStats) {
	t.Helper()
	opts := hyqsat.HardwareOptions()
	opts.Seed = 5
	reg := obs.NewRegistry()
	if batched {
		sampler := anneal.NewSampler(opts.Schedule, opts.Noise, 11)
		opts.Backend = qbatch.New(sampler, opts.Hardware, qbatch.Config{Timing: opts.Timing, Metrics: reg})
	}
	timer := &qpuTimer{}
	if decorated {
		opts.WrapBackend = func(b qpu.Backend) qpu.Backend {
			_, innerCosted := b.(qpu.CostedBackend)
			wrapped := timeBackend(b, timer, nil, 0, 0)
			if _, costed := wrapped.(qpu.CostedBackend); costed != innerCosted {
				t.Errorf("decorator over %s: CostedBackend %v, inner %v", b.Name(), costed, innerCosted)
			}
			return wrapped
		}
	}
	r := hyqsat.New(f, opts).Solve()
	return solveOutcome{
		status:    r.Status,
		conflicts: r.Stats.SAT.Conflicts,
		qaCalls:   r.Stats.QACalls,
		warmup:    r.Stats.WarmupIterations,
		device:    r.Stats.QADevice,
		batchNs:   reg.Counter("batch_device_ns").Value(),
	}, timer.snapshot()
}

func TestDecoratorLeavesSolveUnchanged(t *testing.T) {
	formulas := map[string]*cnf.Formula{
		"sat":   gen.SatisfiableRandom3SAT(30, 128, 3).Formula,
		"unsat": gen.UnsatisfiableRandom3SAT(30, 140, 3).Formula,
	}
	for name, f := range formulas {
		for _, batched := range []bool{false, true} {
			plain, _ := solveWith(t, f, batched, false)
			timed, st := solveWith(t, f, batched, true)
			if plain != timed {
				t.Errorf("%s, batched=%v: outcome changed by the decorator:\nplain %+v\ntimed %+v",
					name, batched, plain, timed)
			}
			if plain.status == sat.Unknown || plain.qaCalls == 0 {
				t.Errorf("%s, batched=%v: want a verdict reached with QA calls, got %+v", name, batched, plain)
			}
			if st.calls != int64(timed.qaCalls) || st.errors != 0 {
				t.Errorf("%s, batched=%v: decorator saw %d calls (%d failed), solver made %d",
					name, batched, st.calls, st.errors, timed.qaCalls)
			}
			if batched && st.shares != timed.device {
				t.Errorf("%s: solver charged %v, scheduler reported %v through the decorator",
					name, timed.device, st.shares)
			}
		}
	}
}

// submitPair sends two problems concurrently, one per tenant, through a
// scheduler that co-tiles exactly two members per program, and returns each
// tenant's charged share and the scheduler's total device time.
func submitPair(t *testing.T, decorated bool) (shares [2]time.Duration, deviceNs int64) {
	t.Helper()
	timing := anneal.DWave2000QTiming()
	reg := obs.NewRegistry()
	sampler := anneal.NewSampler(anneal.DefaultSchedule(), anneal.NoNoise, 1)
	// The window outlasts any scheduling delay: the program runs when the
	// second member arrives.
	var backend qpu.Backend = qbatch.New(sampler, hyqsat.HardwareOptions().Hardware, qbatch.Config{
		Window: 10 * time.Second, MaxMembers: 2, Timing: timing, Metrics: reg})
	if decorated {
		backend = timeBackend(backend, &qpuTimer{}, nil, 0, 0)
	}
	costed, ok := backend.(qpu.CostedBackend)
	if !ok {
		t.Fatalf("decorated=%v: backend over the scheduler lost SubmitCosted", decorated)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range shares {
		ep, err := bench.BuildSampleFixture(int64(i+1), 8, 24)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, ep *anneal.EmbeddedProblem) {
			defer wg.Done()
			_, shares[i], errs[i] = costed.SubmitCosted(context.Background(), ep, 1)
		}(i, ep)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if programs := reg.Counter("batch_programs").Value(); programs != 1 {
		t.Fatalf("want both requests co-tiled onto one program, got %d programs", programs)
	}
	return shares, reg.Counter("batch_device_ns").Value()
}

func TestDecoratorKeepsTenantBatchShares(t *testing.T) {
	plain, plainNs := submitPair(t, false)
	timed, timedNs := submitPair(t, true)
	if plain != timed || plainNs != timedNs {
		t.Fatalf("tenant charges changed by the decorator: plain %v (device %dns), timed %v (device %dns)",
			plain, plainNs, timed, timedNs)
	}
	solo := anneal.DWave2000QTiming().AccessTime(1)
	if sum := timed[0] + timed[1]; sum.Nanoseconds() != timedNs || timed[0] >= solo || timed[1] >= solo {
		t.Fatalf("shares %v must each stay below the solo %v and sum to the program's %dns", timed, solo, timedNs)
	}
}
