package verify

import (
	"fmt"
	"strings"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

// FuzzProofCheck throws arbitrary formula/proof text pairs at the DRAT
// parser and the proof checker, with hints drawn from the third input: on
// the parsed proof's additions, and as corruptions of the hinted proof the
// CDCL solver records for the formula when it is unsatisfiable. The checker
// must never panic, must return the reference checker's verdict and error
// text on every variant, and — the soundness property — must never accept an
// UNSAT proof for a formula the reference oracle can satisfy. Corrupted
// proofs or hints may fail parsing or checking, but can never turn a
// satisfiable formula into a certified-UNSAT one.
func FuzzProofCheck(f *testing.F) {
	f.Add("p cnf 1 2\n1 0\n-1 0\n", "0\n", []byte(nil))
	f.Add("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", "1 0\n0\n", []byte(nil))
	f.Add("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", "d 1 2 0\n1 0\n0\n", []byte(nil))
	f.Add("p cnf 2 1\n1 2 0\n", "0\n", []byte(nil))
	f.Add("p cnf 3 2\n1 2 3 0\n-1 -2 0\n", "c comment\n-3 0\n0\n", []byte(nil))
	f.Add("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n", "1 0\n0\n", []byte{2, 1, 2, 2, 5, 3, 4, 0, 1})
	f.Fuzz(func(t *testing.T, cnfText, proofText string, hintData []byte) {
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
		if proof.Len() > 200 {
			t.Skip()
		}
		variants := map[string]Proof{"text": proof}
		if len(hintData) > 0 {
			variants["text, hinted"] = NewProof(withHints(formula, proof.Steps(), hintData)...)
		}
		rec := NewRecorder()
		s := sat.New(formula.Copy(), sat.MiniSATOptions())
		s.SetProofWriter(rec)
		if s.Solve().Status == sat.Unsat {
			variants["solver"] = rec.Proof()
			pick := bytePicker(hintData)
			for i, q := range hintMutations(formula, rec.Proof().Steps(), pick) {
				variants[fmt.Sprintf("solver, hint mutation %d", i)] = NewProof(q...)
			}
		}
		for name, p := range variants {
			// The production checker must return the reference checker's
			// verdict and error text.
			want := fmt.Sprint(referenceCheckUnsatProof(formula, p))
			if got := fmt.Sprint(CheckUnsatProof(formula, p)); got != want {
				t.Fatalf("%s: got %q, reference %q\nformula:\n%s\nproof:\n%+v",
					name, got, want, cnfText, p.Steps())
			}
			if want != "<nil>" {
				continue // rejected: always sound
			}
			// Accepted: the formula must actually be unsatisfiable. The
			// oracle is affordable at fuzzing sizes.
			if formula.NumVars <= 16 {
				if status, _ := Oracle(formula); status == sat.Sat {
					t.Fatalf("%s: checker accepted an UNSAT proof for a satisfiable formula\nformula:\n%s\nproof:\n%+v",
						name, cnfText, p.Steps())
				}
			}
		}
	})
}

// bytePicker returns a choice function drawing from data in turn (two bytes
// per choice, cycling); with no data every choice is 0.
func bytePicker(data []byte) func(n int) int {
	i := 0
	return func(n int) int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[i%len(data)])<<8 | int(data[(i+1)%len(data)])
		i += 2
		return b % n
	}
}

// withHints gives every addition of steps hints drawn from data: up to seven
// ids each, in [-1, last id + 1], so that valid, deleted, future and unknown
// ids all occur.
func withHints(f *cnf.Formula, steps []Step, data []byte) []Step {
	last := len(f.Clauses)
	for _, s := range steps {
		if !s.Del {
			last++
		}
	}
	pick := bytePicker(data)
	for i := range steps {
		if steps[i].Del {
			continue
		}
		steps[i].Hints = nil
		for n := pick(8); n > 0; n-- {
			steps[i].Hints = append(steps[i].Hints, int32(pick(last+3))-1)
		}
	}
	return steps
}

// hintMutations returns copies of steps, a hinted proof of f, each with one
// hint corrupted, at positions chosen by pick(n) ∈ [0, n): a hint dropped,
// two adjacent hints swapped, a hint duplicated, and a hint pointed at a
// deleted, a future (the step's own or a later id) and an out-of-range id.
func hintMutations(f *cnf.Formula, steps []Step, pick func(n int) int) [][]Step {
	// Replay the ids: input clause i is i+1, the k-th addition m+k, and a
	// deletion removes the latest live clause with its literals.
	live := map[string][]int32{}
	for i, c := range f.Clauses {
		k := clauseKey(c)
		live[k] = append(live[k], int32(i)+1)
	}
	ids := make([]int32, len(steps))
	var deleted []int32
	delBefore := make([]int, len(steps)) // len(deleted) at each step
	var hinted []int                     // additions with hints
	id := int32(len(f.Clauses))
	for i, s := range steps {
		delBefore[i] = len(deleted)
		k := clauseKey(s.Lits)
		if s.Del {
			if l := live[k]; len(l) > 0 {
				deleted = append(deleted, l[len(l)-1])
				live[k] = l[:len(l)-1]
			}
			continue
		}
		id++
		ids[i] = id
		live[k] = append(live[k], id)
		if len(s.Hints) > 0 {
			hinted = append(hinted, i)
		}
	}
	if len(hinted) == 0 {
		return nil
	}
	var out [][]Step
	mutate := func(edit func(i int, hints []int32) []int32) {
		q := make([]Step, len(steps))
		copy(q, steps)
		i := hinted[pick(len(hinted))]
		hints := append([]int32(nil), q[i].Hints...)
		if hints = edit(i, hints); hints != nil {
			q[i].Hints = hints
			out = append(out, q)
		}
	}
	mutate(func(_ int, h []int32) []int32 { // drop
		j := pick(len(h))
		return append(h[:j], h[j+1:]...)
	})
	mutate(func(_ int, h []int32) []int32 { // swap
		if len(h) < 2 {
			return nil
		}
		j := pick(len(h) - 1)
		h[j], h[j+1] = h[j+1], h[j]
		return h
	})
	mutate(func(_ int, h []int32) []int32 { // duplicate
		j := pick(len(h))
		return append(h[:j+1], h[j:]...)
	})
	mutate(func(i int, h []int32) []int32 { // deleted
		if delBefore[i] == 0 {
			return nil
		}
		h[pick(len(h))] = deleted[pick(delBefore[i])]
		return h
	})
	mutate(func(i int, h []int32) []int32 { // future
		h[pick(len(h))] = ids[i] + int32(pick(3))
		return h
	})
	mutate(func(_ int, h []int32) []int32 { // out of range
		h[pick(len(h))] = []int32{0, -1, -1 << 31, 1 << 30}[pick(4)]
		return h
	})
	return out
}
