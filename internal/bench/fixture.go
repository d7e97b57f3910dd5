package bench

import (
	"fmt"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/gen"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
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
	return anneal.EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is)), nil
}

// BuildCDCLFixture returns the uf100-430 instance shared by the CDCL
// micro-benchmarks (internal/sat BenchmarkPropagate / BenchmarkSolveUF and
// cmd/benchreport -suite cdcl): a satisfiable uniform random 3-SAT instance
// at the phase-transition clause/variable ratio, deterministic by seed.
func BuildCDCLFixture() *cnf.Formula {
	return gen.SatisfiableRandom3SAT(100, 430, 1).Formula
}
