package sat

import (
	"sort"

	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
)

// StepStatus is the outcome of a single solver iteration.
type StepStatus int

// Step outcomes.
const (
	StepContinue StepStatus = iota // search continues
	StepSat                        // a model was found
	StepUnsat                      // unsatisfiability was proven
	StepBudget                     // the conflict budget ran out or the search was interrupted
)

// Step runs one iteration of the CDCL search: propagation, conflict
// resolution (with learning, backjumping, restarts and DB reduction), and —
// when no conflict arises — one decision. This is the unit the paper counts
// ("one iteration includes three steps: decision, propagation, conflict
// resolving") and the granularity at which the HyQSAT hybrid loop interleaves
// quantum guidance.
func (s *Solver) Step() StepStatus {
	if s.status == Unsat {
		return StepUnsat
	}
	if s.status == Sat {
		return StepSat
	}
	if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
		return StepBudget
	}
	if s.interrupted.Load() {
		return StepBudget
	}
	s.stats.Iterations++
	if s.metrics.Iterations != nil {
		s.metrics.Iterations.Set(s.stats.Iterations)
	}

	for {
		conflict := s.propagate()
		if s.decisionLevel() == 0 {
			s.logRootUnits()
		}
		if conflict == crefUndef {
			break
		}
		if !s.handleConflict(conflict) {
			return StepUnsat
		}
		if s.shouldRestart() {
			s.restart()
		}
		if float64(len(s.learnts)) >= s.maxLearnts {
			s.reduceDB()
		}
		// A conflict concludes this iteration; the next decision happens in
		// the next iteration, matching the paper's cycle.
		return StepContinue
	}

	// Forced decisions (injected search state) take precedence.
	for len(s.forced) > 0 {
		l := s.forced[0]
		s.forced = s.forced[1:]
		if s.assigns[l.Var()] != cnf.Undef {
			continue
		}
		s.stats.Decisions++
		s.newDecisionLevel()
		if !s.enqueue(l, crefUndef) {
			panic("sat: forced decision on assigned variable")
		}
		return StepContinue
	}

	v := s.pickBranchVar()
	if v == cnf.NoVar {
		s.status = Sat
		s.model = make([]bool, len(s.assigns))
		for i, val := range s.assigns {
			s.model[i] = val == cnf.True
		}
		return StepSat
	}
	s.stats.Decisions++
	s.newDecisionLevel()
	if !s.enqueue(cnf.MkLit(v, !s.polarity[v]), crefUndef) {
		panic("sat: decision on assigned variable")
	}
	return StepContinue
}

// Solve runs the CDCL search to completion (or until the conflict budget
// runs out or Interrupt stops it) and returns the result. Solve may be
// called again afterwards to continue the search.
func (s *Solver) Solve() Result {
	for {
		switch s.Step() {
		case StepSat:
			return Result{Status: Sat, Model: s.model, Stats: s.stats}
		case StepUnsat:
			return Result{Status: Unsat, Stats: s.stats}
		case StepBudget:
			return Result{Status: Unknown, Stats: s.stats}
		}
	}
}

// --- Restarts ---

func (s *Solver) restartBudget() int64 {
	if s.opts.Preset == Kissat {
		return 50 // EMA check window; the EMA test drives the decision
	}
	return luby(2, s.lubyIndex) * restartBase
}

func (s *Solver) updateRestartEMA() {
	var lbd float64
	if len(s.learnts) > 0 {
		lbd = float64(s.ca.lbd(s.learnts[len(s.learnts)-1]))
	} else {
		lbd = 1
	}
	// Fast EMA over ~50 conflicts, slow over ~5000.
	s.lbdEMAFast += (lbd - s.lbdEMAFast) / 50
	s.lbdEMASlow += (lbd - s.lbdEMASlow) / 5000
	s.emaConflicts++
}

func (s *Solver) shouldRestart() bool {
	if s.decisionLevel() == s.rootLevel {
		return false
	}
	if s.opts.Preset == Kissat {
		// Restart when recent conflicts produce markedly worse (higher-LBD)
		// clauses than the long-run average.
		return s.emaConflicts > 50 && s.lbdEMAFast > 1.25*s.lbdEMASlow
	}
	s.conflictsUntilRestart--
	return s.conflictsUntilRestart <= 0
}

func (s *Solver) restart() {
	s.stats.Restarts++
	if s.trace != nil && s.trace.Enabled() {
		s.trace.Emit(obs.RestartEvent{Restarts: s.stats.Restarts, Conflicts: s.stats.Conflicts})
	}
	s.cancelUntil(s.rootLevel)
	s.lubyIndex++
	s.conflictsUntilRestart = s.restartBudget()
	s.emaConflicts = 0
	s.lbdEMAFast = s.lbdEMASlow
}

// luby returns base^(position in the Luby sequence), the classic restart
// spacing 1,1,2,1,1,2,4,…
func luby(y float64, x int64) int64 {
	size, seq := int64(1), int64(0)
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x = x % size
	}
	out := int64(1)
	for ; seq > 0; seq-- {
		out *= int64(y)
	}
	return out
}

// --- Learnt clause DB reduction ---

// reduceDB removes roughly half of the learnt clauses, keeping the most
// valuable ones (by activity or LBD depending on the configured mode) and
// never removing reason clauses of current assignments. When anything was
// removed it finishes with garbageCollect, which compacts the arena and
// purges every dead watcher and learnt-list entry — deleted clauses never
// survive a reduce.
func (s *Solver) reduceDB() {
	candidates := s.redBuf[:0]
	for _, c := range s.learnts {
		if s.ca.deleted(c) {
			continue
		}
		candidates = append(candidates, c)
	}
	switch s.opts.Preset {
	case Kissat: // LBD first, activity breaks ties
		sort.Slice(candidates, func(i, j int) bool {
			li, lj := s.ca.lbd(candidates[i]), s.ca.lbd(candidates[j])
			if li != lj {
				return li < lj
			}
			return s.ca.act(candidates[i]) > s.ca.act(candidates[j])
		})
	default: // MiniSAT: activity only
		sort.Slice(candidates, func(i, j int) bool {
			return s.ca.act(candidates[i]) > s.ca.act(candidates[j])
		})
	}
	keep := len(candidates) / 2
	live := s.learnts[:0]
	removed := 0
	for i, c := range candidates {
		protected := s.isReason(c) || s.ca.size(c) == 2 ||
			(s.opts.Preset == Kissat && s.ca.lbd(c) <= 2)
		if i < keep || protected {
			live = append(live, c)
			continue
		}
		s.proofDelete(s.ca.lits(c))
		s.ca.delete(c)
		s.stats.Removed++
		removed++
	}
	s.learnts = live
	s.redBuf = candidates[:0]
	s.maxLearnts *= 1.1
	if removed > 0 {
		s.garbageCollect()
	}
}

// isReason reports whether clause c is the antecedent of a current
// assignment. For non-binary clauses propagation keeps the implied literal at
// lits[0]; binary clauses implied through the watcher fast path do not
// maintain that invariant, but they are unconditionally protected from
// reduction by their size, so the positional check stays sufficient.
func (s *Solver) isReason(c cref) bool {
	lits := s.ca.lits(c)
	if len(lits) == 0 {
		return false
	}
	v := lits[0].Var()
	return s.assigns[v] != cnf.Undef && s.reason[v] == c
}
