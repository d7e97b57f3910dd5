package sat

import (
	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
)

// analyze derives a first-UIP learnt clause from the conflict, returning the
// learnt literals (asserting literal first) and the backjump level. It also
// bumps variable activities, CHB scores, and the paper's per-input-clause
// activity scores for every clause involved in the resolution. When a proof
// writer is attached it leaves the clause's hints (see ProofWriter) in
// s.hints.
func (s *Solver) analyze(conflict cref) (learnt []cnf.Lit, backjump int32) {
	learnt = s.analyzeBuf[:0]
	learnt = append(learnt, cnf.NoLit) // reserve slot for the asserting literal

	logging := s.proof != nil
	units := s.hints[:0]      // ids of the root-level units met
	chain := s.chain[:0]      // ids of the resolved clauses, conflict first
	cleared := s.clearBuf[:0] // every variable marked seen

	pathC := 0
	p := cnf.NoLit
	idx := len(s.trail) - 1
	c := conflict

	for {
		if logging {
			chain = append(chain, s.clauseID(c))
		}
		if s.ca.learnt(c) {
			s.claBump(c)
		} else {
			// Paper §IV-A: "the activity score of the involved clauses in the
			// backtrack increases by a constant."
			o := s.ca.orig(c)
			s.clauseScore[o] += 1.0
			if s.confVisits != nil {
				s.confVisits[o]++
			}
		}
		// Resolve over every literal but p. (For binary clauses implied via
		// the watcher fast path the implied literal is not necessarily at
		// lits[0], so no positional shortcut is taken here.)
		for _, q := range s.ca.lits(c) {
			if q == p {
				continue
			}
			v := q.Var()
			if s.seen[v] {
				continue
			}
			if s.level[v] == 0 {
				if logging {
					units = s.hintUnit(units, v)
					cleared = append(cleared, v)
				}
				continue
			}
			s.seen[v] = true
			s.bumpOnConflict(v)
			cleared = append(cleared, v)
			if s.level[v] >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to resolve on: walk the trail backwards to the
		// most recent seen variable at the current decision level.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		c = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Clause minimisation (basic mode): a literal is redundant if its reason
	// clause is entirely made of seen/root literals.
	removed := s.removedBuf[:0]
	out := learnt[:1]
	for _, q := range learnt[1:] {
		if s.litRedundant(q) {
			removed = append(removed, q)
			continue
		}
		out = append(out, q)
	}
	s.stats.Minimized += int64(len(removed))
	learnt = out

	if logging {
		// Hints: the root-level units, the reasons of the removed literals
		// in trail order (one may rest on an earlier one), then the resolved
		// reasons in trail order, ending with the conflict.
		for i := 1; i < len(removed); i++ {
			q, j := removed[i], i
			for ; j > 0 && s.trailPos[removed[j-1].Var()] > s.trailPos[q.Var()]; j-- {
				removed[j] = removed[j-1]
			}
			removed[j] = q
		}
		for _, q := range removed {
			for _, l := range s.ca.lits(s.reason[q.Var()]) {
				if v := l.Var(); s.level[v] == 0 && !s.seen[v] {
					units = s.hintUnit(units, v)
					cleared = append(cleared, v)
				}
			}
		}
		hints := units
		for _, q := range removed {
			hints = append(hints, s.clauseID(s.reason[q.Var()]))
		}
		for i := len(chain) - 1; i >= 0; i-- {
			hints = append(hints, chain[i])
		}
		s.hints, s.chain = hints, chain
	}
	s.removedBuf = removed

	// Compute backjump level: the second-highest level in the clause.
	backjump = 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		backjump = s.level[learnt[1].Var()]
	}

	// Every seen variable is in cleared (the resolved ones were also
	// cleared as we walked the trail).
	for _, v := range cleared {
		s.seen[v] = false
	}
	s.analyzeBuf = learnt
	s.clearBuf = cleared
	return learnt, backjump
}

// hintUnit appends the unit id of root-level variable v to units and marks v
// seen, so that a lemma names each unit once. The caller clears the mark.
func (s *Solver) hintUnit(units []int32, v cnf.Var) []int32 {
	s.seen[v] = true
	return append(units, s.unitID[v])
}

// litRedundant reports whether learnt literal q can be removed because every
// literal of its reason clause is already seen or fixed at the root level.
func (s *Solver) litRedundant(q cnf.Lit) bool {
	r := s.reason[q.Var()]
	if r == crefUndef {
		return false
	}
	for _, l := range s.ca.lits(r) {
		if l.Var() == q.Var() {
			continue
		}
		if !s.seen[l.Var()] && s.level[l.Var()] != 0 {
			return false
		}
	}
	return true
}

// bumpOnConflict applies the heuristic-specific score update for a variable
// encountered during conflict analysis.
func (s *Solver) bumpOnConflict(v cnf.Var) {
	switch s.opts.Preset {
	case Kissat: // CHB
		// Conflict-history bandit: reward is larger the more recently the
		// variable last participated in a conflict.
		reward := 1.0 / float64(s.stats.Conflicts-s.lastConflict[v]+1)
		s.varAct[v] = (1-s.chbAlpha)*s.varAct[v] + s.chbAlpha*reward
		s.lastConflict[v] = s.stats.Conflicts
		s.order.update(v)
	default: // VSIDS
		s.varBump(v, s.varInc)
	}
}

// computeLBD counts the distinct decision levels among the clause literals
// (the "literal block distance" glue metric). It stamps a per-level scratch
// slice instead of building a set, so it allocates nothing.
func (s *Solver) computeLBD(lits []cnf.Lit) int32 {
	s.lbdStamp++
	var n int32
	for _, l := range lits {
		if lvl := s.level[l.Var()]; s.lbdSeen[lvl] != s.lbdStamp {
			s.lbdSeen[lvl] = s.lbdStamp
			n++
		}
	}
	return n
}

// handleConflict learns from the conflict and backjumps. It returns false
// when the conflict proves unsatisfiability (conflict at the root level).
func (s *Solver) handleConflict(conflict cref) bool {
	s.stats.Conflicts++
	level := int(s.decisionLevel())
	if s.metrics.ConflictDepth != nil {
		s.metrics.ConflictDepth.Observe(float64(level))
	}
	if s.decisionLevel() == 0 {
		s.status = Unsat
		// the empty clause: unsatisfiability is established
		s.proofRefute(s.ca.lits(conflict), s.clauseID(conflict))
		if s.trace != nil && s.trace.Enabled() {
			s.trace.Emit(obs.ConflictEvent{Conflicts: s.stats.Conflicts, Level: level})
		}
		return false
	}
	learnt, backjump := s.analyze(conflict)
	id := s.proofAdd(learnt, s.hints)
	s.cancelUntil(backjump)
	if s.metrics.LearntLen != nil {
		s.metrics.LearntLen.Observe(float64(len(learnt)))
	}
	lbd := int32(1)
	if len(learnt) == 1 {
		if !s.enqueueUnit(learnt[0], id) {
			s.status = Unsat
			s.proofRefute(learnt, id)
			return false
		}
	} else {
		c := s.attachClause(learnt, true, int(id))
		lbd = s.computeLBD(learnt)
		s.ca.setLBD(c, lbd)
		s.stats.Learned++
		if !s.enqueue(learnt[0], c) {
			panic("sat: asserting literal already false after backjump")
		}
	}
	if s.trace != nil && s.trace.Enabled() {
		s.trace.Emit(obs.ConflictEvent{
			Conflicts: s.stats.Conflicts,
			Level:     level,
			LearntLen: len(learnt),
			LBD:       int(lbd),
			Backjump:  int(backjump),
		})
	}
	switch s.opts.Preset {
	case Kissat: // CHB
		// Decay α towards its floor, per the CHB schedule.
		if s.chbAlpha > 0.06 {
			s.chbAlpha -= 1e-6
		}
	default: // VSIDS
		s.varDecayActivity()
	}
	s.claDecayActivity()
	s.updateRestartEMA()
	return true
}
