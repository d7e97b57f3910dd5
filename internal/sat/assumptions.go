package sat

import "hyqsat/internal/cnf"

// SolveWithAssumptions runs the CDCL search with the given literals assumed
// true, in the incremental style of MiniSAT: assumptions are placed as the
// first decisions, and the solver reports Unsat when the formula has no
// model consistent with them. Result.AssumptionsFailed distinguishes
// "unsatisfiable under these assumptions" from global unsatisfiability.
// The solver remains usable afterwards (learnt clauses are kept), so
// repeated calls with different assumptions solve incrementally.
func (s *Solver) SolveWithAssumptions(assumptions []cnf.Lit) Result {
	if s.status == Unsat {
		return Result{Status: Unsat, Stats: s.stats}
	}
	// Restart the search so assumptions sit at the bottom of the trail.
	s.cancelUntil(0)
	s.status = Unknown
	s.model = nil

	for {
		// Honour the conflict budget (the cube probe's) and the asynchronous
		// interrupt flag (how the cube workers are cancelled).
		if s.opts.MaxConflicts > 0 && s.stats.Conflicts >= s.opts.MaxConflicts {
			s.cancelUntil(0)
			return Result{Status: Unknown, Stats: s.stats}
		}
		if s.interrupted.Load() {
			s.cancelUntil(0)
			return Result{Status: Unknown, Stats: s.stats}
		}
		conflict := s.propagate()
		if s.decisionLevel() == 0 {
			s.logRootUnits()
		}
		if conflict != crefUndef {
			if s.decisionLevel() == 0 {
				s.status = Unsat
				s.proofRefute(s.ca.lits(conflict), s.clauseID(conflict))
				return Result{Status: Unsat, Stats: s.stats}
			}
			if int(s.decisionLevel()) <= len(assumptions) {
				// The conflict depends on the assumptions: unsatisfiable
				// under them, but not necessarily globally. Learn from it
				// anyway, then report. The learnt clause is a genuine RUP
				// consequence of the formula (assumptions only steered the
				// search), so it belongs in the proof trace.
				s.stats.Conflicts++
				learnt, backjump := s.analyze(conflict)
				id := s.proofAdd(learnt, s.hints)
				s.cancelUntil(backjump)
				if len(learnt) == 1 {
					if !s.enqueueUnit(learnt[0], id) {
						s.status = Unsat
						s.proofRefute(learnt, id)
						return Result{Status: Unsat, Stats: s.stats}
					}
				} else {
					c := s.attachClause(learnt, true, int(id))
					s.ca.setLBD(c, s.computeLBD(learnt))
					s.stats.Learned++
					if !s.enqueue(learnt[0], c) {
						s.status = Unsat
						if s.decisionLevel() == 0 {
							s.proofRefute(learnt, id)
						}
						return Result{Status: Unsat, Stats: s.stats}
					}
				}
				// Re-check whether the assumptions are still jointly
				// enqueueable; the outer loop will retry them.
				if s.assumptionsConflict(assumptions) {
					s.cancelUntil(0)
					s.status = Unknown
					return Result{Status: Unsat, Stats: s.stats,
						AssumptionsFailed: true}
				}
				continue
			}
			s.stats.Iterations++
			if !s.handleConflict(conflict) {
				return Result{Status: Unsat, Stats: s.stats}
			}
			continue
		}

		// Place the next assumption, or fall back to normal decisions.
		if int(s.decisionLevel()) < len(assumptions) {
			a := assumptions[s.decisionLevel()]
			switch s.value(a) {
			case cnf.True:
				// Already satisfied: open an empty level so indices align.
				s.newDecisionLevel()
			case cnf.False:
				s.cancelUntil(0)
				s.status = Unknown
				return Result{Status: Unsat, Stats: s.stats, AssumptionsFailed: true}
			default:
				s.stats.Iterations++
				s.stats.Decisions++
				s.newDecisionLevel()
				s.enqueue(a, crefUndef)
			}
			continue
		}

		v := s.pickBranchVar()
		if v == cnf.NoVar {
			s.model = make([]bool, len(s.assigns))
			for i, val := range s.assigns {
				s.model[i] = val == cnf.True
			}
			// Leave status Unknown so the solver can be reused with other
			// assumptions; the returned result carries Sat.
			model := s.model
			s.cancelUntil(0)
			return Result{Status: Sat, Model: model, Stats: s.stats}
		}
		s.stats.Iterations++
		s.stats.Decisions++
		s.newDecisionLevel()
		s.enqueue(cnf.MkLit(v, !s.polarity[v]), crefUndef)
	}
}

// assumptionsConflict reports whether any assumption is already false under
// the current (post-backjump) trail.
func (s *Solver) assumptionsConflict(assumptions []cnf.Lit) bool {
	for _, a := range assumptions {
		if s.value(a) == cnf.False {
			return true
		}
	}
	return false
}
