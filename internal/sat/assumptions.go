package sat

import "hyqsat/internal/cnf"

// SolveWithAssumptions runs the CDCL search with the given literals assumed
// true, in the incremental style of MiniSAT: Step places the assumptions as
// the first decisions (again after every restart), and the solver reports
// Unsat when the formula has no model consistent with them.
// Result.AssumptionsFailed distinguishes "unsatisfiable under these
// assumptions" from global unsatisfiability. The solver remains usable
// afterwards (learnt clauses are kept), so repeated calls with different
// assumptions solve incrementally. With a proof writer attached, an
// AssumptionsFailed result's last logged addition is the final clause: the
// failed assumptions negated, hinted (proofFinal).
func (s *Solver) SolveWithAssumptions(assumptions []cnf.Lit) Result {
	if s.status == Unsat {
		return Result{Status: Unsat, Stats: s.stats}
	}
	// Restart the search so assumptions sit at the bottom of the trail.
	s.cancelUntil(0)
	s.status = Unknown
	s.model = nil
	s.assumps = assumptions
	// Empty levels (assumptions already true) can lift the decision level
	// above the variable count; computeLBD stamps one entry per level.
	if need := len(s.vals)/2 + len(assumptions) + 1; len(s.lbdSeen) < need {
		s.lbdSeen = append(s.lbdSeen, make([]int64, need-len(s.lbdSeen))...)
	}
	st := s.Step()
	for st == StepContinue {
		st = s.Step()
	}
	s.assumps = nil
	s.cancelUntil(0)

	r := Result{Stats: s.stats}
	switch st {
	case StepSat:
		// Leave status Unknown so the solver can be reused with other
		// assumptions; the result carries Sat.
		s.status = Unknown
		r.Status, r.Model = Sat, s.model
	case StepUnsat:
		r.Status = Unsat
	case stepAssumptionsFailed:
		r.Status, r.AssumptionsFailed = Unsat, true
	}
	return r
}
