package sat

import "hyqsat/internal/cnf"

// ProofWriter receives the clause events of a CDCL run in the order the
// solver performs them, forming a DRAT/RUP-style proof trace: every clause
// passed to ProofAdd is a reverse-unit-propagation (RUP) consequence of the
// input formula plus the previously added clauses, and ProofDelete marks a
// clause the solver discards from its database. An empty ProofAdd is the
// empty clause — the final step of an unsatisfiability proof.
//
// Every clause has an id: input clause i is i+1, and the k-th ProofAdd is
// m+k for an m-clause input. hints lists, in LRAT order, the ids of the
// clauses whose unit propagation derives the added clause: asserting the
// negation of lits and walking the hints in order, each hinted clause is
// unit (it implies its one unassigned literal) and the last is falsified.
// The solver emits the ids of the root-level units first, then the reasons
// of the literals clause minimisation removed, then the reasons resolved
// away by conflict analysis, both in trail order, and the conflict clause
// last. Every root-level literal the solver propagates is logged as a unit
// clause of its own, so that later hints can name it.
//
// The literal and hint slices are owned by the solver and only valid for the
// duration of the call; implementations must copy them if they retain them.
//
// Implementations live in internal/verify (an in-memory Recorder and a DRAT
// text serialiser); the hook is defined here so the solver core stays free of
// verification dependencies.
type ProofWriter interface {
	ProofAdd(lits []cnf.Lit, hints []int32)
	ProofDelete(lits []cnf.Lit)
}

// SetProofWriter attaches a proof writer to the solver. Attach it before
// solving starts; clauses learnt earlier are not replayed. A nil writer
// disables proof logging.
//
// Unsatisfiability detected during New (an empty input clause or a root-level
// propagation conflict) produces no proof steps: in that case the empty
// clause follows from the input formula by unit propagation alone, which a
// RUP checker verifies from an empty proof.
func (s *Solver) SetProofWriter(w ProofWriter) { s.proof = w }

// proofAdd logs a derived clause when a proof writer is attached and returns
// the clause's id. Ids are counted whether or not a writer is attached.
func (s *Solver) proofAdd(lits []cnf.Lit, hints []int32) int32 {
	id := s.nextID
	s.nextID++
	if s.proof != nil {
		s.proof.ProofAdd(lits, hints)
	}
	return id
}

// proofDelete logs a deleted clause when a proof writer is attached.
func (s *Solver) proofDelete(lits []cnf.Lit) {
	if s.proof != nil {
		s.proof.ProofDelete(lits)
	}
}

// clauseID is the proof id of clause c: its input index plus one, or the id
// it was logged under when learnt.
func (s *Solver) clauseID(c cref) int32 {
	if s.ca.learnt(c) {
		return int32(s.ca.orig(c))
	}
	return int32(s.ca.orig(c)) + 1
}

// logRootUnits gives every root-level literal on the trail a unit id. An
// input unit or a learnt unit already has one; a literal propagated at the
// root is logged as a unit clause whose hints are the units of its reason's
// other literals (all earlier on the trail) and the reason itself. Call it
// at decision level 0 only.
func (s *Solver) logRootUnits() {
	if s.proof == nil {
		return
	}
	for ; s.rootLogged < len(s.trail); s.rootLogged++ {
		l := s.trail[s.rootLogged]
		v := l.Var()
		if s.unitID[v] != 0 {
			continue
		}
		r := s.reason[v]
		hints := s.hints[:0]
		for _, q := range s.ca.lits(r) {
			if q.Var() != v {
				hints = append(hints, s.unitID[q.Var()])
			}
		}
		hints = append(hints, s.clauseID(r))
		s.hints = hints
		s.unitLit[0] = l
		s.unitID[v] = s.proofAdd(s.unitLit[:], hints)
	}
}

// enqueueUnit assigns the literal of a learnt unit clause, logged under id,
// at the root, and makes the clause the variable's unit.
func (s *Solver) enqueueUnit(l cnf.Lit, id int32) bool {
	if !s.enqueue(l, crefUndef) {
		return false
	}
	s.unitID[l.Var()] = id
	return true
}

// proofRefute logs the empty clause, derived from a clause (lits, with id)
// that every root-level literal falsifies.
func (s *Solver) proofRefute(lits []cnf.Lit, id int32) {
	s.logRootUnits()
	hints := s.hints[:0]
	for _, q := range lits {
		hints = append(hints, s.unitID[q.Var()])
	}
	s.hints = append(hints, id)
	s.proofAdd(nil, s.hints)
}
