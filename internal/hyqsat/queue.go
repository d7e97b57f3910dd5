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

// queueGen is the working storage of §IV-A queue generation, kept by a
// solver across iterations so that it allocates nothing in steady state.
type queueGen struct {
	// stamp marks clause c as a candidate of the current call when
	// stamp[c] == epoch, and as already queued when stamp[c] == epoch+1.
	stamp []uint32
	epoch uint32
	top   []int
	queue []int
	vars  []cnf.Var
}

// generate builds the clause queue of §IV-A: the head is drawn uniformly
// from the topN highest-activity candidate clauses, then clauses sharing a
// variable with the current clause are appended breadth-first (variable by
// variable, in clause order) until the queue reaches limit or the
// candidates are exhausted. Only clauses in the candidate set (the currently
// unsatisfied ones) are eligible. The returned slice holds clause indices
// into the formula and is valid until the next call.
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

	// Head drawn from the top-N by activity score among candidates.
	top := append(g.top[:0], candidates...)
	g.top = top
	if topN > len(top) {
		topN = len(top)
	}
	head := g.topAt(top, scores, topN, rng.Intn(topN))

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

// topAt returns the candidate at position k < topN of top after a selection
// sort by descending score, which defines the activity pool: step i swaps
// into position i the first of top[i:] with the highest score. Let floor be
// the topN-th highest score. The steps first select the fewer than topN
// candidates scoring above floor, so those steps run over their positions
// alone; every later step takes the first candidate scoring floor that
// remains, swapping it with a lower-scoring one, so those steps take the
// floor-scoring candidates in position order. Scores must not be NaN.
func (g *queueGen) topAt(top []int, scores []float64, topN, k int) int {
	// The topN highest-scoring candidates, lowest score first. The pool
	// borrows the queue's storage, which the queue overwrites only once its
	// head is known.
	pool := g.queue[:0]
	for _, c := range top {
		s := scores[c]
		if len(pool) < topN {
			pool = append(pool, c)
			for j := len(pool) - 1; j > 0 && scores[pool[j-1]] > s; j-- {
				pool[j], pool[j-1] = pool[j-1], pool[j]
			}
			continue
		}
		if s <= scores[pool[0]] {
			continue
		}
		j := 0
		for ; j+1 < len(pool) && scores[pool[j+1]] < s; j++ {
			pool[j] = pool[j+1]
		}
		pool[j] = c
	}
	floor := scores[pool[0]]

	// pool now holds the positions at or after step i of the candidates
	// scoring above floor.
	pool = pool[:0]
	for p, c := range top {
		if scores[c] > floor {
			pool = append(pool, p)
		}
	}
	g.queue = pool
	above := len(pool)
	for i := 0; i < above; i++ {
		bi := 0
		for j := 1; j < len(pool); j++ {
			sj, sb := scores[top[pool[j]]], scores[top[pool[bi]]]
			if sj > sb || sj == sb && pool[j] < pool[bi] {
				bi = j
			}
		}
		best := pool[bi]
		if i == k {
			return top[best]
		}
		moved := top[i]
		top[i], top[best] = top[best], moved
		pool[bi] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
		if best != i && scores[moved] > floor {
			pool[slices.Index(pool, i)] = best
		}
	}
	for _, c := range top[above:] {
		if scores[c] == floor {
			if k == above {
				return c
			}
			k--
		}
	}
	panic("hyqsat: fewer than topN candidates score at least the floor")
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
