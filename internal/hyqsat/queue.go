// Package hyqsat implements the paper's contribution: a hybrid SAT solver
// that integrates a quantum annealer (here, the anneal package's hardware
// simulator) with CDCL search.
//
// The frontend (§IV) tracks per-clause conflict activity, generates a clause
// queue by breadth-first traversal from a random top-30-activity head,
// embeds the queue prefix onto the Chimera hardware with the linear-time
// scheme, and applies the coefficient adjustment that widens the energy gap
// under normalisation. The backend (§V) interprets each single QA sample
// through the Gaussian-Naive-Bayes confidence partition and applies one of
// four feedback strategies to steer the CDCL search. The hybrid phase runs
// for the first √K iterations (the warm-up stage), after which classic CDCL
// finishes the search.
package hyqsat

import (
	"math"
	"math/rand"
	"slices"

	"hyqsat/internal/cnf"
)

// topN is the §IV-A activity pool the solver draws queue heads from.
const topN = 30

// GenerateQueue builds the clause queue of §IV-A: the head is drawn
// uniformly from the topN highest-activity candidate clauses, then clauses
// sharing a variable with the current clause are appended breadth-first
// (variable by variable, in clause order) until the queue reaches limit or
// the candidates are exhausted. Only clauses in the candidate set (the
// currently unsatisfied ones) are eligible. The returned slice holds clause
// indices into the formula.
func GenerateQueue(f *cnf.Formula, varAdj [][]int, scores []float64,
	candidates []int, topN, limit int, rng *rand.Rand) []int {
	return new(queueGen).generate(f, varAdj, scores, candidates, topN, limit, rng)
}

// queueGen is GenerateQueue's working storage, kept by a solver across
// iterations so that queue generation allocates nothing in steady state.
type queueGen struct {
	// stamp marks clause c as a candidate of the current call when
	// stamp[c] == epoch, and as already queued when stamp[c] == epoch+1.
	stamp []uint32
	epoch uint32
	top   []int
	queue []int
	vars  []cnf.Var
}

// generate is GenerateQueue on g's storage: it makes the same rng draws and
// returns the same queue, valid until the next call.
func (g *queueGen) generate(f *cnf.Formula, varAdj [][]int, scores []float64,
	candidates []int, topN, limit int, rng *rand.Rand) []int {

	if len(candidates) == 0 || limit <= 0 {
		return nil
	}
	if len(g.stamp) < len(f.Clauses) || g.epoch >= math.MaxUint32-2 {
		g.stamp = make([]uint32, len(f.Clauses))
		g.epoch = 0
	}
	g.epoch += 2
	candidate, queued := g.epoch, g.epoch+1
	for _, c := range candidates {
		g.stamp[c] = candidate
	}

	// Top-N by activity score among candidates.
	top := append(g.top[:0], candidates...)
	g.top = top
	// Partial selection sort: enough for N ≈ 30.
	if topN > len(top) {
		topN = len(top)
	}
	for i := 0; i < topN; i++ {
		best := i
		for j := i + 1; j < len(top); j++ {
			if scores[top[j]] > scores[top[best]] {
				best = j
			}
		}
		top[i], top[best] = top[best], top[i]
	}
	head := top[rng.Intn(topN)]

	g.stamp[head] = queued
	queue := append(g.queue[:0], head)
	for cur := 0; cur < len(queue) && len(queue) < limit; cur++ {
		g.vars = sortedVars(g.vars[:0], f.Clauses[queue[cur]])
		for _, v := range g.vars {
			for _, other := range varAdj[v] {
				if len(queue) >= limit {
					break
				}
				if g.stamp[other] == candidate {
					g.stamp[other] = queued
					queue = append(queue, other)
				}
			}
		}
	}
	g.queue = queue
	return queue
}

// sortedVars appends the distinct variables of c to dst in ascending order,
// as Clause.Vars returns them.
func sortedVars(dst []cnf.Var, c cnf.Clause) []cnf.Var {
	for _, l := range c {
		v := l.Var()
		i := len(dst)
		for i > 0 && dst[i-1] > v {
			i--
		}
		if i > 0 && dst[i-1] == v {
			continue
		}
		dst = slices.Insert(dst, i, v)
	}
	return dst
}

// RandomQueue is the Fig 14 baseline: a uniformly shuffled prefix of the
// candidate clauses, ignoring activity and locality.
func RandomQueue(candidates []int, limit int, rng *rand.Rand) []int {
	out := append([]int(nil), candidates...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > limit {
		out = out[:limit]
	}
	return out
}
