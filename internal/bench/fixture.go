package bench

import (
	"fmt"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/qubo"
	"hyqsat/internal/sat"
	"hyqsat/internal/topo"
	"hyqsat/internal/verify"
)

// BuildSampleFixture builds a representative embedded problem — a random
// 3-SAT instance pushed through the full frontend pipeline — for sampler
// micro-benchmarks. The root BenchmarkSampleOnce/BenchmarkSamplerParallel and
// cmd/benchreport share it so their numbers are comparable.
func BuildSampleFixture(seed int64, numVars, numClauses int) (*anneal.EmbeddedProblem, error) {
	inst := gen.SatisfiableRandom3SAT(numVars, numClauses, seed)
	enc, err := qubo.Encode(inst.Formula.Clauses)
	if err != nil {
		return nil, err
	}
	g := topo.DWave2000Q()
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses == 0 {
		return nil, fmt.Errorf("bench: no clause of the fixture embedded")
	}
	sub := enc.Restrict(res.EmbeddedSet)
	is := sub.Program(&qubo.Sums{}, true)
	return new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is)), nil
}

// BuildCDCLFixture returns the uf100-430 instance shared by the CDCL
// micro-benchmarks (internal/sat BenchmarkPropagate / BenchmarkSolveUF and
// cmd/benchreport -suite cdcl): a satisfiable uniform random 3-SAT instance
// at the phase-transition clause/variable ratio, deterministic by seed.
func BuildCDCLFixture() *cnf.Formula {
	return gen.SatisfiableRandom3SAT(100, 430, 1).Formula
}

// BuildProofFixture returns the uuf150-645 instance shared by the proof
// checker benchmarks (internal/verify BenchmarkCheckUnsatProof and
// cmd/benchreport -suite cdcl) with the hinted DRAT proof a MiniSAT-configured
// solve records for it: 8.6k steps, deterministic by seed.
func BuildProofFixture() (*cnf.Formula, verify.Proof) {
	f := gen.UnsatisfiableRandom3SAT(150, 645, 3).Formula
	rec := verify.NewRecorder()
	s := sat.New(f.Copy(), sat.MiniSATOptions())
	s.SetProofWriter(rec)
	if r := s.Solve(); r.Status != sat.Unsat {
		panic("bench: proof fixture must be unsatisfiable")
	}
	return f, rec.Proof()
}
