package hyqsat

import (
	"fmt"
	"math/rand"

	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/topo"
)

// EmbedBench is the fixture behind `benchreport -suite embed` and
// BenchmarkColdFrontend: a HardwareOptions solver on a uf150-sized formula
// and a 300-clause BFS activity queue over it, the shape of queue every
// hybrid-mode warm-up iteration embeds. Pass runs one frontend pass on the
// solver's own scratch, as a warm-up iteration does.
type EmbedBench struct {
	s     *Solver
	queue []int
}

// NewEmbedBench prepares the fixture for a topology ("chimera" or
// "pegasus").
func NewEmbedBench(topology string) (*EmbedBench, error) {
	g, err := topo.New(topology)
	if err != nil {
		return nil, err
	}
	f, queue := coldActivityQueue()
	o := HardwareOptions()
	o.Hardware = g
	eb := &EmbedBench{s: New(f, o), queue: queue}
	if eb.s.fabric == nil {
		return nil, fmt.Errorf("embedbench: topology %s has no Fast embedder", g.Name())
	}
	return eb, nil
}

// coldActivityQueue returns a uf150-sized formula and a 300-clause BFS
// activity queue over it (random activity scores, every clause a
// candidate).
func coldActivityQueue() (*cnf.Formula, []int) {
	f := gen.Random3SAT(150, 645, 3).Formula
	rng := rand.New(rand.NewSource(5))
	scores := make([]float64, len(f.Clauses))
	for i := range scores {
		scores[i] = rng.Float64()
	}
	cands := make([]int, len(f.Clauses))
	for i := range cands {
		cands[i] = i
	}
	return f, new(queueGen).generate(f, cnf.VarAdjacency(f), scores, cands, topN, 300, rng)
}

// Pass runs one frontend pass: the queue stage (unsat-set scan and queue
// generation, Solver.clauseQueue) and then encodeAndEmbed on the fixture
// queue (encode, Fast, restriction, coefficient adjustment, normalisation,
// EmbedIsing). It returns the number of embedded clauses.
func (e *EmbedBench) Pass() int {
	e.s.clauseQueue()
	fe := e.s.encodeAndEmbed(e.queue)
	if fe.embedded == 0 {
		panic("embedbench: Fast embedded nothing")
	}
	return fe.embedded
}
