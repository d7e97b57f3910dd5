package hyqsat

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/qpu"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// submitHook is a qpu.Backend decorator that shows each submitted problem
// to onSubmit before passing it on.
type submitHook struct {
	qpu.Backend
	onSubmit func(*anneal.EmbeddedProblem)
}

func (h submitHook) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	h.onSubmit(ep)
	return h.Backend.Submit(ctx, ep, reads)
}

// TestSolverEmbedPathAccounting pins the embedding accounting on Chimera:
// every frontend pass that reaches embedding is one Fast embedder run, and
// the embedding-cache hit counter, kept for its readers, never moves.
func TestSolverEmbedPathAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := random3SAT(rng, 40, 170)
	o := simOpts(3)
	o.WarmupIterations = 150
	r := New(f, o).Solve()
	st := r.Stats
	if st.EmbedCacheMisses == 0 {
		t.Fatal("solve ran no embeddings")
	}
	if st.EmbedFastRuns != st.EmbedCacheMisses || st.EmbedTemplateHits != 0 || st.EmbedCacheHits != 0 {
		t.Fatalf("fast runs %d, template hits %d, cache hits %d; want fast runs = passes (%d) and no hits",
			st.EmbedFastRuns, st.EmbedTemplateHits, st.EmbedCacheHits, st.EmbedCacheMisses)
	}
	if r.Status == sat.Sat && !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
		t.Fatal("invalid model")
	}
}

// solveOnHardware solves f on g with SelfCertify and checks the contract
// every topology keeps: QA ran, every frontend pass was a Fast run, every
// submitted EmbeddedProblem passes embed.Verify against g itself (its
// broken qubits and, on Pegasus, the full Pegasus graph), and the verdict
// equals pure CDCL's and is certified.
func solveOnHardware(t *testing.T, f *cnf.Formula, g topo.Topology, seed int64) Stats {
	t.Helper()
	o := simOpts(seed)
	o.Hardware = g
	o.WarmupIterations = 60
	o.SelfCertify = true
	var s *Solver
	verified := 0
	o.WrapBackend = func(b qpu.Backend) qpu.Backend {
		return submitHook{Backend: b, onSubmit: func(ep *anneal.EmbeddedProblem) {
			if ep.Graph != g {
				t.Fatalf("%s: problem programmed onto %s, not the solver's hardware", g.Name(), ep.Graph.Name())
			}
			// The pass's queue encoding is still in the solver's scratch:
			// re-running Fast on it recovers the embedded clause set the
			// problem was programmed from.
			res := embed.Fast(&s.front.enc, s.fabric)
			if !reflect.DeepEqual(res.Embedding.Chains, ep.Embedding.Chains) {
				t.Fatalf("%s: submitted embedding differs from Fast's on the pass's queue", g.Name())
			}
			p := embed.ProblemFromEncoding(s.front.enc.Restrict(res.EmbeddedSet))
			if err := embed.Verify(p, g, ep.Embedding); err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			verified++
		}}
	}
	s = New(f, o)
	r := s.Solve()
	st := r.Stats
	if st.QACalls == 0 || verified < st.QACalls {
		t.Fatalf("%s: %d QA calls, %d verified problems in %d warm-up iterations",
			g.Name(), st.QACalls, verified, st.WarmupIterations)
	}
	if st.EmbedFastRuns != st.EmbedCacheMisses {
		t.Fatalf("%s: %d Fast runs for %d frontend passes", g.Name(), st.EmbedFastRuns, st.EmbedCacheMisses)
	}
	want := sat.New(f.Copy(), sat.MiniSATOptions()).Solve().Status
	if r.Status != want || !r.Certified {
		t.Fatalf("%s: status %v (certified %v, %v), CDCL says %v", g.Name(), r.Status, r.Certified, r.CertErr, want)
	}
	return st
}

// TestSolverBrokenHardware solves on a 2000Q with 120 broken qubits: Fast
// routes around them, so QA still runs on every miss and every embedding
// is valid on the faulted chip.
func TestSolverBrokenHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := topo.NewChimera(16, 16, 4, distinctQubits(rng, topo.DWave2000Q().NumQubits(), 120)...)
	for _, nc := range []int{125, 170} {
		solveOnHardware(t, random3SAT(rng, 30+nc/12, nc), g, 5)
	}
}

// TestSolverPegasusDegrades runs the hybrid on the Pegasus model, healthy
// and with 300 broken qubits. Fast embeds onto its Chimera fabric, so the
// solve keeps its QA guidance instead of degrading to pure CDCL, and every
// embedding is valid on the Pegasus graph.
func TestSolverPegasusDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	healthy := topo.AdvantagePegasus()
	faulted := topo.NewPegasus(16, distinctQubits(rng, healthy.NumQubits(), 300)...)
	for _, g := range []topo.Topology{healthy, faulted} {
		for _, nc := range []int{85, 125} {
			solveOnHardware(t, random3SAT(rng, 20+nc/12, nc), g, 7)
		}
	}
}

// distinctQubits draws rng.Intn(n) until it has k distinct qubits: the
// broken set of a faulted chip.
func distinctQubits(rng *rand.Rand, n, k int) []int {
	drawn := map[int]bool{}
	var out []int
	for len(out) < k {
		if q := rng.Intn(n); !drawn[q] {
			drawn[q] = true
			out = append(out, q)
		}
	}
	return out
}

// TestPastProblemsCollected pins the frontend's retention contract: nothing
// keeps an iteration's embedded problem once the iteration ends, so a
// collection in the middle of a solve frees the problems of past iterations
// while the solver is still live. The one exception is the problem submitted
// just before, which the sampler's scratch still keys its chain graph by.
func TestPastProblemsCollected(t *testing.T) {
	f := gen.Random3SAT(150, 645, 3).Formula
	o := HardwareOptions()
	o.Seed = 3
	o.WarmupIterations = 40
	const checkAt = 20
	// One slot per possible submission, so a finalizer never blocks.
	freed := make(chan struct{}, o.WarmupIterations)
	submitted := 0
	o.WrapBackend = func(b qpu.Backend) qpu.Backend {
		return submitHook{Backend: b, onSubmit: func(ep *anneal.EmbeddedProblem) {
			if submitted == checkAt {
				runtime.GC()
				timeout := time.After(10 * time.Second)
				for i := 0; i < checkAt-1; i++ {
					select {
					case <-freed:
					case <-timeout:
						t.Fatalf("%d of %d past problems still live mid-solve", checkAt-1-i, checkAt-1)
					}
				}
			}
			submitted++
			runtime.SetFinalizer(ep, func(*anneal.EmbeddedProblem) { freed <- struct{}{} })
		}}
	}
	s := New(f, o)
	s.Solve()
	if submitted <= checkAt {
		t.Fatalf("solve submitted %d problems, want more than %d", submitted, checkAt)
	}
	runtime.KeepAlive(s)
}

// TestDefaultHardwareShared pins that defaulted options share one 2000Q
// graph per process, while topo.DWave2000Q keeps building fresh ones for
// callers that mark qubits broken.
func TestDefaultHardwareShared(t *testing.T) {
	a, b := Options{}.WithDefaults(), HardwareOptions()
	if a.Hardware == nil || a.Hardware != b.Hardware {
		t.Fatalf("defaulted options got distinct graphs %p and %p", a.Hardware, b.Hardware)
	}
	if topo.Topology(topo.DWave2000Q()) == a.Hardware {
		t.Fatal("topo.DWave2000Q returned the shared default graph")
	}
}
