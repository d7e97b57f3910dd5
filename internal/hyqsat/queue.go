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
	"math/rand"

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

	if len(candidates) == 0 || limit <= 0 {
		return nil
	}
	inCandidates := make(map[int]bool, len(candidates))
	for _, c := range candidates {
		inCandidates[c] = true
	}

	// Top-N by activity score among candidates.
	top := append([]int(nil), candidates...)
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

	visited := map[int]bool{head: true}
	queue := []int{head}
	for cur := 0; cur < len(queue) && len(queue) < limit; cur++ {
		for _, v := range f.Clauses[queue[cur]].Vars() {
			for _, other := range varAdj[v] {
				if len(queue) >= limit {
					break
				}
				if !visited[other] && inCandidates[other] {
					visited[other] = true
					queue = append(queue, other)
				}
			}
		}
	}
	return queue
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
