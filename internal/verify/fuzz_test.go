package verify

import (
	"fmt"
	"strings"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

// FuzzProofCheck throws arbitrary formula/proof text pairs at the DRAT
// parser and RUP checker. The checker must never panic, must return the
// reference checker's verdict and error text, and — the soundness
// property — must never accept an UNSAT proof for a formula the reference
// oracle can satisfy. Corrupted proofs may fail parsing or checking, but can
// never turn a satisfiable formula into a certified-UNSAT one.
func FuzzProofCheck(f *testing.F) {
	f.Add("p cnf 1 2\n1 0\n-1 0\n", "0\n")
	f.Add("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", "1 0\n0\n")
	f.Add("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", "d 1 2 0\n1 0\n0\n")
	f.Add("p cnf 2 1\n1 2 0\n", "0\n")
	f.Add("p cnf 3 2\n1 2 3 0\n-1 -2 0\n", "c comment\n-3 0\n0\n")
	f.Fuzz(func(t *testing.T, cnfText, proofText string) {
		formula, err := cnf.ParseDIMACSString(cnfText)
		if err != nil {
			t.Skip()
		}
		if formula.NumVars > 64 || formula.NumClauses() > 200 {
			t.Skip()
		}
		proof, err := ParseDRAT(strings.NewReader(proofText))
		if err != nil {
			t.Skip()
		}
		if len(proof) > 200 {
			t.Skip()
		}
		// The production checker, and its multi-worker path dealing one
		// addition per chunk, must return the reference checker's verdict
		// and error text.
		want := fmt.Sprint(referenceCheckUnsatProof(formula, proof))
		for name, err := range map[string]error{
			"CheckUnsatProof":    CheckUnsatProof(formula, proof),
			"3 workers, chunk 1": checkUnsatProof(formula, proof, 3, 1),
		} {
			if got := fmt.Sprint(err); got != want {
				t.Fatalf("%s: got %q, reference %q\nformula:\n%s\nproof:\n%s",
					name, got, want, cnfText, proofText)
			}
		}
		if want != "<nil>" {
			return // rejected: always sound
		}
		// Accepted: the formula must actually be unsatisfiable. The oracle
		// is affordable at fuzzing sizes.
		if formula.NumVars <= 16 {
			if status, _ := Oracle(formula); status == sat.Sat {
				t.Fatalf("checker accepted an UNSAT proof for a satisfiable formula\nformula:\n%s\nproof:\n%s",
					cnfText, proofText)
			}
		}
	})
}
