package sat

import "hyqsat/internal/cnf"

// ClauseExchange is the solver's side of a clause-sharing bus: learnt clauses
// flow out through Export and foreign clauses flow in through Import. The
// solver calls Export from the conflict-analysis hot path — implementations
// must not block and must copy the literals if they retain them (the slice is
// solver-owned scratch). Import is called only at restart boundaries (and at
// Solve/SolveWithAssumptions entry), with the solver at the root level, so
// imported clauses attach with a clean trail.
//
// The exchange carries raw clauses, not trust: every imported clause is
// re-asserted into the solver's proof trace (see ImportClause), so in a
// certifying run a clause that is not a genuine consequence of the shared
// premise makes the RUP checker reject the proof. Sharing can therefore lose
// performance to a misbehaving peer, never soundness.
type ClauseExchange interface {
	// Export offers a freshly learnt clause (with its LBD) to peers.
	Export(lits []cnf.Lit, lbd int32)
	// Import drains pending foreign clauses, calling yield once per clause.
	// A false return from yield stops the drain (the solver stops once its
	// status leaves Unknown).
	Import(yield func(lits []cnf.Lit, lbd int32) bool)
}

// SetExchange attaches a clause-sharing exchange. Attach before solving; a
// nil exchange disables sharing. With an exchange attached but no peer
// traffic the search is bit-identical to an unattached run: exporting reads
// no solver state beyond the learnt clause and consumes no randomness, and an
// empty Import is a no-op.
func (s *Solver) SetExchange(x ClauseExchange) { s.exchange = x }

// exportLearnt offers a learnt clause to the exchange, if one is attached.
// Called after the clause went to the proof writer, so on a shared proof log
// the exporter's addition is always ordered before any peer's import of it.
func (s *Solver) exportLearnt(lits []cnf.Lit, lbd int32) {
	if s.exchange != nil {
		s.exchange.Export(lits, lbd)
	}
}

// drainImports pulls every pending foreign clause from the exchange into the
// solver. Must be called at the root level (restart boundaries); imported
// units extend the root trail, and a root conflict settles the formula Unsat
// on the spot.
func (s *Solver) drainImports() {
	if s.exchange == nil || s.status != Unknown {
		return
	}
	s.exchange.Import(func(lits []cnf.Lit, lbd int32) bool {
		s.ImportClause(lits, lbd)
		return s.status == Unknown
	})
	if s.status == Unknown {
		if conflict := s.propagate(); conflict != crefUndef {
			s.status = Unsat
			s.proofAdd(nil)
		}
	}
}

// ImportClause attaches a foreign clause to the solver as a learnt clause.
// The solver must be at the root level (callers outside drainImports: only
// before solving starts). The clause is deduplicated, dropped if tautological
// or already satisfied at the root, strengthened by removing root-false
// literals, and — crucially — re-asserted into the proof trace before being
// attached. For a genuine consequence of the shared premise that re-assertion
// is a harmless duplicate RUP step; for a corrupted clause it is the step the
// proof checker rejects, which is what keeps certified sharing sound.
//
// The hot path allocates only through amortised arena/watch growth: the
// dedup marks and the literal buffer are reused scratch
// (TestImportSteadyStateAllocs gates this).
func (s *Solver) ImportClause(lits []cnf.Lit, lbd int32) {
	if s.status != Unknown || s.decisionLevel() != s.rootLevel {
		return
	}
	if s.importMark == nil {
		s.importMark = make([]int64, 2*len(s.assigns))
	}
	s.importStamp++
	// Size the scratch buffer before filtering: early returns (tautology,
	// root-satisfied) must not drop a freshly grown buffer, or those paths
	// would reallocate on every call.
	if cap(s.importBuf) < len(lits) {
		s.importBuf = make([]cnf.Lit, 0, 2*len(lits))
	}
	buf := s.importBuf[:0]
	for _, l := range lits {
		if int(l.Var()) >= len(s.assigns) {
			return // mentions a variable outside our formula: not our premise
		}
		if s.importMark[l] == s.importStamp {
			continue // duplicate literal
		}
		if s.importMark[l.Not()] == s.importStamp {
			return // tautology: inert, skip
		}
		s.importMark[l] = s.importStamp
		switch s.value(l) {
		case cnf.True:
			return // already satisfied at the root forever
		case cnf.False:
			continue // root-false literal: strengthen it away
		}
		buf = append(buf, l)
	}
	s.importBuf = buf

	// The strengthened clause is RUP against the shared log: the original
	// clause is in the exporter's trace and the removed literals are falsified
	// by root units the checker propagates itself.
	s.proofAdd(buf)
	s.stats.Imported++
	switch len(buf) {
	case 0:
		// Every literal was root-false: the import is the empty clause.
		s.status = Unsat
	case 1:
		if !s.enqueue(buf[0], crefUndef) {
			s.status = Unsat
			s.proofAdd(nil)
		}
	default:
		c := s.attachClause(buf, true, -1)
		if lbd < 1 {
			lbd = 1
		}
		if int(lbd) > len(buf) {
			lbd = int32(len(buf))
		}
		s.ca.setLBD(c, lbd)
	}
}
