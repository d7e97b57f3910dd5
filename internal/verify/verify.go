// Package verify is the correctness-certification layer of the repository:
// independent machinery that checks the answers of every solver rather than
// trusting them.
//
// Three pillars:
//
//   - Proof certification (drat.go): the CDCL core logs learnt and deleted
//     clauses through sat.ProofWriter; the Recorder and TextWriter here
//     capture that trace in DRAT form, and CheckUnsatProof replays it with a
//     standalone reverse-unit-propagation (RUP) checker, so an UNSAT verdict
//     is accepted only when mechanically re-derived from the input formula.
//     The checker keeps its clauses in one flat arena with blocker-literal
//     watches, and splits a long proof's RUP checks across GOMAXPROCS
//     workers in interleaved chunks; each worker replays the whole proof, so
//     verdicts and errors are exactly those of a sequential check (DESIGN.md
//     §6).
//
//   - Model certification (CheckModel): a SAT verdict is accepted only when
//     the reported assignment is total over the formula's variables and
//     satisfies every clause of the original, pre-preprocessing formula.
//
//   - Differential testing (oracle.go, diff.go): a heuristic-free reference
//     DPLL oracle cross-checked against the production solvers on randomized
//     instances, with automatic shrinking of failing instances to minimal
//     clause subsets.
//
// The package deliberately depends only on internal/cnf and internal/sat
// (for the Status and ProofWriter types), never on the hybrid or portfolio
// layers, so those layers can certify themselves through it.
package verify

import (
	"fmt"

	"hyqsat/internal/cnf"
)

// CheckModel certifies a SAT verdict: the model must assign every variable
// of f (extra trailing entries — e.g. 3-CNF auxiliaries — are allowed and
// ignored) and satisfy every clause. It returns nil when the model is valid
// and a descriptive error naming the first violated clause otherwise.
func CheckModel(f *cnf.Formula, model []bool) error {
	if len(model) < f.NumVars {
		return fmt.Errorf("verify: model covers %d of %d variables", len(model), f.NumVars)
	}
	for i, c := range f.Clauses {
		sat := false
		for _, l := range c {
			val := model[l.Var()]
			if l.IsNeg() {
				val = !val
			}
			if val {
				sat = true
				break
			}
		}
		if !sat {
			return fmt.Errorf("verify: model falsifies clause %d: %v", i, c)
		}
	}
	return nil
}

// Certificate bundles an unsatisfiability proof with the premise formula it
// refutes. For the hybrid solver the premise is the 3-CNF form actually
// solved (equisatisfiable with the user's input); for the classical solvers
// it is the input formula itself.
type Certificate struct {
	Premise *cnf.Formula
	Proof   Proof
}

// CheckUnsat replays the certificate's proof against its premise.
func (c *Certificate) CheckUnsat() error {
	if c == nil {
		return fmt.Errorf("verify: no certificate")
	}
	return CheckUnsatProof(c.Premise, c.Proof)
}
