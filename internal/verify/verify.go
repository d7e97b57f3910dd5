// Package verify is the correctness-certification layer of the repository:
// independent machinery that checks the answers of every solver rather than
// trusting them.
//
// Three pillars:
//
//   - Proof certification (proof.go, drat.go): the CDCL core logs learnt
//     and deleted clauses through sat.ProofWriter, each learnt clause with
//     LRAT-style hints; the Recorder (flat, varint-encoded, hints kept) and
//     TextWriter (plain DRAT text) here capture that trace, and
//     CheckUnsatProof replays it with a standalone checker, so an UNSAT
//     verdict is accepted only when mechanically re-derived from the input
//     formula. A hinted proof is checked by walking each lemma's hints; a
//     proof without hints, or a lemma whose hints fail, by one sequential
//     reverse unit propagation (RUP) pass (DESIGN.md §6).
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
