package hyqsat

import (
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
)

// TestSolverEmbedPathAccounting pins the miss-service invariant on Chimera:
// every cache miss is served by exactly one of the template fast path or the
// Fast embedder, and both are visible in Stats.
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
	if got := st.EmbedTemplateHits + st.EmbedFastRuns; got != st.EmbedCacheMisses {
		t.Fatalf("template(%d) + fast(%d) = %d, want = misses(%d)",
			st.EmbedTemplateHits, st.EmbedFastRuns, got, st.EmbedCacheMisses)
	}
	if r.Status == sat.Sat && !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
		t.Fatal("invalid model")
	}
}

// TestSolverBrokenHardware solves on a Chimera with broken qubits: the
// template set must route around them (shrinking capacity, never emitting an
// invalid embedding), the Fast embedder — whose routing assumes a fully
// working chip — must never run, and the verdict must stay exact.
func TestSolverBrokenHardware(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := topo.DWave2000Q()
	for i := 0; i < 120; i++ {
		g.MarkBroken(rng.Intn(g.NumQubits()))
	}
	f := random3SAT(rng, 30, 125)
	o := simOpts(5)
	o.Hardware = g
	o.WarmupIterations = 60
	r := New(f, o).Solve()
	st := r.Stats
	if st.EmbedFastRuns != 0 {
		t.Fatalf("Fast embedder ran %d times on a faulted chip", st.EmbedFastRuns)
	}
	if st.EmbedTemplateHits > st.EmbedCacheMisses {
		t.Fatalf("template hits %d exceed cache misses %d",
			st.EmbedTemplateHits, st.EmbedCacheMisses)
	}
	if r.Status == sat.Sat && !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
		t.Fatal("invalid model")
	}
}

// TestSolverPegasusDegrades runs the hybrid on the Pegasus model, which has
// no Fast embedder: template-ineligible queues must degrade that iteration
// to pure CDCL (never run Fast, never crash), and the verdict stays exact.
func TestSolverPegasusDegrades(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, nc := range []int{85, 125} {
		f := random3SAT(rng, 20+nc/12, nc)
		o := simOpts(7)
		o.Hardware = topo.AdvantagePegasus()
		o.WarmupIterations = 60
		r := New(f, o).Solve()
		st := r.Stats
		if st.EmbedFastRuns != 0 {
			t.Fatalf("Fast embedder ran %d times on Pegasus", st.EmbedFastRuns)
		}
		switch r.Status {
		case sat.Sat:
			if !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
				t.Fatal("invalid model")
			}
		case sat.Unsat:
			// fine — degradation must not flip verdicts, which the CDCL
			// core guarantees; nothing more to check without a proof.
		default:
			t.Fatalf("status %v on a complete solve", r.Status)
		}
	}
}
