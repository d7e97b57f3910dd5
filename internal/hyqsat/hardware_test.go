package hyqsat

import (
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// TestSolverEmbedPathAccounting pins the miss-service invariant on Chimera:
// every cache miss is served by one Fast embedder run, visible in Stats.
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
	if st.EmbedFastRuns != st.EmbedCacheMisses || st.EmbedTemplateHits != 0 {
		t.Fatalf("fast runs %d, template hits %d, want fast runs = misses (%d) and no template hits",
			st.EmbedFastRuns, st.EmbedTemplateHits, st.EmbedCacheMisses)
	}
	if r.Status == sat.Sat && !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
		t.Fatal("invalid model")
	}
}

// solveOnHardware solves f on g with SelfCertify and checks the contract
// every topology keeps: QA ran, every cache miss was a Fast run, every
// cached EmbeddedProblem passes embed.Verify against g itself (its broken
// qubits and, on Pegasus, the full Pegasus graph), and the verdict equals
// pure CDCL's and is certified.
func solveOnHardware(t *testing.T, f *cnf.Formula, g topo.Topology, seed int64) Stats {
	t.Helper()
	o := simOpts(seed)
	o.Hardware = g
	o.WarmupIterations = 60
	o.SelfCertify = true
	s := New(f, o)
	r := s.Solve()
	st := r.Stats
	if st.QACalls == 0 {
		t.Fatalf("%s: no QA calls in %d warm-up iterations", g.Name(), st.WarmupIterations)
	}
	if st.EmbedFastRuns != st.EmbedCacheMisses {
		t.Fatalf("%s: %d Fast runs for %d cache misses", g.Name(), st.EmbedFastRuns, st.EmbedCacheMisses)
	}
	if st.EmbedCacheEvictions != 0 {
		t.Fatalf("%s: %d cache evictions; the check below needs every entry", g.Name(), st.EmbedCacheEvictions)
	}
	verified := 0
	for i := range s.cache.shards {
		for _, le := range s.cache.shards[i].entries {
			ent := le.ent
			if ent.embedded == 0 {
				continue
			}
			if ent.ep.Graph != g {
				t.Fatalf("%s: problem programmed onto %s, not the solver's hardware", g.Name(), ent.ep.Graph.Name())
			}
			if err := embed.Verify(embed.ProblemFromEncoding(ent.embEnc), g, ent.ep.Embedding); err != nil {
				t.Fatalf("%s: %v", g.Name(), err)
			}
			verified++
		}
	}
	if verified == 0 {
		t.Fatalf("%s: no embedded problem to verify", g.Name())
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
	g := topo.DWave2000Q()
	for g.NumQubits()-g.NumWorking() < 120 {
		g.MarkBroken(rng.Intn(g.NumQubits()))
	}
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
	faulted := topo.AdvantagePegasus()
	for faulted.NumQubits()-faulted.NumWorking() < 300 {
		faulted.MarkBroken(rng.Intn(faulted.NumQubits()))
	}
	for _, g := range []topo.Topology{healthy, faulted} {
		for _, nc := range []int{85, 125} {
			solveOnHardware(t, random3SAT(rng, 20+nc/12, nc), g, 7)
		}
	}
}
