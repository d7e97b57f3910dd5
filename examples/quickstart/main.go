// Quickstart: build a small 3-SAT formula in code, solve it with the HyQSAT
// hybrid solver, and inspect the solution and the hybrid statistics.
package main

import (
	"fmt"
	"log"

	"hyqsat/internal/cnf"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/sat"
)

func main() {
	// (x1 ∨ x2 ∨ x3) ∧ (¬x1 ∨ ¬x3 ∨ x4) ∧ (¬x2 ∨ x3 ∨ ¬x4) ∧ (x1 ∨ ¬x2 ∨ x4)
	f := cnf.New(4)
	f.Add(1, 2, 3)
	f.Add(-1, -3, 4)
	f.Add(-2, 3, -4)
	f.Add(1, -2, 4)

	// HardwareOptions emulates the paper's D-Wave 2000Q setup: Chimera
	// 16×16 topology, 130µs per sample, device-like noise. NumReads draws
	// several reads per QA access (in parallel, deterministically) and lets
	// the backend classify the best-energy one.
	opts := hyqsat.HardwareOptions()
	opts.Seed = 42
	opts.NumReads = 4

	r := hyqsat.New(f, opts).Solve()
	if r.Status != sat.Sat {
		log.Fatalf("unexpected status %v", r.Status)
	}

	fmt.Println("status:", r.Status)
	for i := 0; i < f.NumVars; i++ {
		fmt.Printf("  x%d = %v\n", i+1, r.Model[i])
	}
	if !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
		log.Fatal("model check failed")
	}
	st := r.Stats
	fmt.Printf("iterations: %d (warm-up %d), QA calls: %d (%d reads), clauses accelerated: %d\n",
		st.SAT.Iterations, st.WarmupIterations, st.QACalls, st.QAReads, st.EmbeddedClauses)
	fmt.Printf("embeddings built: %d (Fast embedder runs)\n", st.EmbedFastRuns)
	fmt.Printf("time: frontend %v + QA %v + backend %v + CDCL %v = %v\n",
		st.Frontend, st.QADevice, st.Backend, st.CDCL, st.Total())
}
