package serve

import (
	"context"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/qpu"
	"hyqsat/internal/qubo"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// remoteProblem builds a small embedded problem for sample-endpoint tests.
func remoteProblem(t testing.TB) *anneal.EmbeddedProblem {
	t.Helper()
	g := topo.NewChimera(4, 4, 4)
	clauses := []cnf.Clause{cnf.NewClause(1, 2, 3), cnf.NewClause(-1, 4, 5)}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	is := enc.Program(&qubo.Sums{}, false)
	return new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
}

// remoteStack builds the production client stack against baseURL: Remote
// (transport replays) under Resilient (retry/backoff/breaker, instant
// sleeps) with a Local standby behind Fallback — the composition cmd/hyqsat
// uses for a remote QPU.
func remoteStack(t testing.TB, baseURL string, seed int64) qpu.Backend {
	t.Helper()
	remote, err := qpu.NewRemote(qpu.RemoteConfig{
		BaseURL: baseURL,
		Tenant:  "chaos",
		Seed:    seed,
		Replays: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res := qpu.NewResilient(remote, qpu.Config{
		MaxAttempts:      3,
		BreakerThreshold: 4,
		BreakerCooldown:  time.Millisecond,
		Seed:             seed,
		Sleep:            func(ctx context.Context, _ time.Duration) error { return ctx.Err() },
	})
	local := qpu.NewLocal(anneal.NewSampler(anneal.LongSchedule(), anneal.NoNoise, seed))
	return qpu.NewFallback(res, local, qpu.FallbackConfig{})
}

// chaosSolveOptions configures a hybrid solve over the remote stack with
// self-certification on, so every conclusive verdict is independently
// verified — any silent corruption surviving the wire chaos would fail it.
func chaosSolveOptions(be qpu.Backend, seed int64) hyqsat.Options {
	o := hyqsat.SimulatorOptions()
	o.Seed = seed
	o.SelfCertify = true
	o.WarmupIterations = 12
	o.Backend = be
	return o
}

// TestWireChaosMatrix is the acceptance gate for the networked path: full
// hybrid solves through a fault-injecting proxy (drops, stalls, truncated
// bodies, corrupted JSON, 5xx bursts — >30% of requests mangled) against
// the live service. Every verdict must come back certified; the chaos can
// cost guidance, never correctness.
func TestWireChaosMatrix(t *testing.T) {
	svc := New(Config{Workers: 1, DefaultQuota: TenantQuota{
		MaxConcurrent: 8, DeviceBudget: time.Second, DeviceRefill: time.Second,
	}})
	defer svc.Drain(context.Background())
	origin := httptest.NewServer(svc.Handler())
	defer origin.Close()

	profiles := map[string]ChaosProfile{
		"drops":    {Drop: 0.35, StallFor: time.Millisecond},
		"stalls":   {Stall: 0.35, StallFor: 2 * time.Millisecond},
		"errors":   {ServerError: 0.4},
		"corrupt":  {Corrupt: 0.4},
		"truncate": {Truncate: 0.4},
		"everything": {
			Drop: 0.08, Stall: 0.08, StallFor: time.Millisecond,
			ServerError: 0.08, Corrupt: 0.08, Truncate: 0.08,
		},
	}
	instances := []*gen.Instance{
		gen.SatisfiableRandom3SAT(12, 40, 5),
		gen.CmpAdd(2, 7), // UNSAT by construction
	}
	for name, profile := range profiles {
		profile := profile
		t.Run(name, func(t *testing.T) {
			proxy, err := NewChaosProxy(origin.URL, profile, 99)
			if err != nil {
				t.Fatal(err)
			}
			front := httptest.NewServer(proxy)
			defer front.Close()

			for i, inst := range instances {
				be := remoteStack(t, front.URL, int64(100+i))
				r := hyqsat.New(inst.Formula, chaosSolveOptions(be, int64(7+i))).Solve()
				if inst.Expected != sat.Unknown && r.Status != inst.Expected {
					t.Fatalf("%s under %q: status=%v, want %v", inst.Name, name, r.Status, inst.Expected)
				}
				if r.Status != sat.Unknown && !r.Certified {
					t.Fatalf("%s under %q: verdict not certified: %v", inst.Name, name, r.CertErr)
				}
			}
			if proxy.Faults() == 0 {
				t.Fatalf("profile %q injected no faults — the gate tested nothing", name)
			}
		})
	}
}

// TestDeadServerDegradesToLocal: with nothing listening at all, the stack
// falls back to the Local standby and the solve still terminates certified —
// the paper's "CDCL absorbs QA failure" property, end to end over the wire.
func TestDeadServerDegradesToLocal(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close() // the port is now refused

	be := remoteStack(t, dead.URL, 3)
	inst := gen.SatisfiableRandom3SAT(14, 50, 8)
	r := hyqsat.New(inst.Formula, chaosSolveOptions(be, 21)).Solve()
	if r.Status != sat.Sat || !r.Certified {
		t.Fatalf("dead-server solve: status=%v certified=%v (%v)", r.Status, r.Certified, r.CertErr)
	}
	fb := be.(*qpu.Fallback)
	if fb.FellBack() == 0 {
		t.Fatal("the standby never served — fallback untested")
	}
}

// TestChaosLeavesNoGoroutines: after a chaos solve and teardown, every
// goroutine is accounted for — nothing parked on a mangled connection.
func TestChaosLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	func() {
		svc := New(Config{Workers: 1, DefaultQuota: TenantQuota{
			MaxConcurrent: 8, DeviceBudget: time.Second, DeviceRefill: time.Second,
		}})
		defer svc.Drain(context.Background())
		origin := httptest.NewServer(svc.Handler())
		defer origin.Close()
		proxy, err := NewChaosProxy(origin.URL, ChaosProfile{
			Drop: 0.1, Stall: 0.1, StallFor: time.Millisecond,
			ServerError: 0.1, Corrupt: 0.1, Truncate: 0.1,
		}, 7)
		if err != nil {
			t.Fatal(err)
		}
		front := httptest.NewServer(proxy)
		defer front.Close()

		be := remoteStack(t, front.URL, 5)
		inst := gen.SatisfiableRandom3SAT(12, 40, 6)
		r := hyqsat.New(inst.Formula, chaosSolveOptions(be, 9)).Solve()
		if r.Status != sat.Sat || !r.Certified {
			t.Fatalf("chaos solve: status=%v certified=%v", r.Status, r.Certified)
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through the chaos run: %d -> %d", before, runtime.NumGoroutine())
}
