package verify

import (
	"math/rand"
	"strings"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

// pigeonhole returns PHP(pigeons, holes): unsatisfiable when pigeons>holes,
// and — unlike contradictory unit chains — not refutable by unit propagation
// alone, so a real proof is required.
func pigeonhole(pigeons, holes int) *cnf.Formula {
	f := cnf.New(pigeons * holes)
	at := func(p, h int) cnf.Var { return cnf.Var(p*holes + h) }
	for p := 0; p < pigeons; p++ {
		c := make(cnf.Clause, holes)
		for h := 0; h < holes; h++ {
			c[h] = cnf.Pos(at(p, h))
		}
		f.AddClause(c)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.AddClause(cnf.Clause{cnf.Neg(at(p1, h)), cnf.Neg(at(p2, h))})
			}
		}
	}
	return f
}

// solveWithProof runs a CDCL solve with a recorder attached.
func solveWithProof(f *cnf.Formula, opts sat.Options) (sat.Result, Proof) {
	s := sat.New(f.Copy(), opts)
	rec := NewRecorder()
	s.SetProofWriter(rec)
	r := s.Solve()
	return r, rec.Proof()
}

func TestUnsatProofFromSolverAccepted(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *cnf.Formula
	}{
		{"php43", pigeonhole(4, 3)},
		{"php54", pigeonhole(5, 4)},
		{"contradictory-units", func() *cnf.Formula {
			f := cnf.New(1)
			f.Add(1)
			f.Add(-1)
			return f
		}()},
		{"empty-clause", func() *cnf.Formula {
			f := cnf.New(2)
			f.Add(1, 2)
			f.AddClause(cnf.Clause{})
			return f
		}()},
	} {
		for _, opts := range []sat.Options{sat.MiniSATOptions(), sat.KissatOptions()} {
			r, proof := solveWithProof(tc.f, opts)
			if r.Status != sat.Unsat {
				t.Fatalf("%s: status %v", tc.name, r.Status)
			}
			if err := CheckUnsatProof(tc.f, proof); err != nil {
				t.Fatalf("%s: valid proof rejected: %v", tc.name, err)
			}
		}
	}
}

func TestUnsatProofRandomInstances(t *testing.T) {
	// Over-constrained random 3-SAT: mostly UNSAT; certify every UNSAT proof
	// under both solver configurations (Luby/activity vs EMA/LBD, which also
	// exercises different deletion patterns).
	rng := rand.New(rand.NewSource(7))
	cfg := DiffConfig{MinVars: 10, MaxVars: 30, MinRatio: 5.0, MaxRatio: 7.0}.withDefaults()
	unsats := 0
	for i := 0; i < 60; i++ {
		f := randomInstance(rng, cfg)
		for _, opts := range []sat.Options{sat.MiniSATOptions(), sat.KissatOptions()} {
			r, proof := solveWithProof(f, opts)
			switch r.Status {
			case sat.Unsat:
				unsats++
				if err := CheckUnsatProof(f, proof); err != nil {
					t.Fatalf("instance %d: proof rejected: %v\n%s", i, err, cnf.DIMACSString(f))
				}
			case sat.Sat:
				if err := CheckModel(f, r.Model); err != nil {
					t.Fatalf("instance %d: %v", i, err)
				}
			}
		}
	}
	if unsats == 0 {
		t.Fatal("no UNSAT instances generated; proof path untested")
	}
}

func TestProofForSatisfiableFormulaRejected(t *testing.T) {
	// Soundness: no proof may certify a satisfiable formula. Reuse a valid
	// UNSAT proof but swap the premise for a satisfiable formula over the
	// same variables.
	php := pigeonhole(4, 3)
	r, proof := solveWithProof(php, sat.MiniSATOptions())
	if r.Status != sat.Unsat {
		t.Fatal("php(4,3) not unsat")
	}
	satF := cnf.New(php.NumVars)
	for v := 0; v < php.NumVars; v++ {
		satF.Add(v + 1) // every variable true: trivially satisfiable
	}
	if err := CheckUnsatProof(satF, proof); err == nil {
		t.Fatal("proof accepted against a satisfiable premise")
	}
	if err := CheckUnsatProof(satF, Proof{}); err == nil {
		t.Fatal("empty proof accepted against a satisfiable premise")
	}
}

func TestMutatedProofRejected(t *testing.T) {
	php := pigeonhole(4, 3)
	r, proof := solveWithProof(php, sat.MiniSATOptions())
	if r.Status != sat.Unsat || proof.Len() == 0 {
		t.Fatalf("unexpected: status=%v steps=%d", r.Status, proof.Len())
	}
	if err := CheckUnsatProof(php, proof); err != nil {
		t.Fatalf("baseline proof rejected: %v", err)
	}

	// A non-consequence step injected at the front must be caught: no unit
	// clause is RUP for the pigeonhole formula at step 0.
	corrupted := NewProof(append([]Step{{Lits: []cnf.Lit{cnf.Pos(0)}}}, proof.Steps()...)...)
	if err := CheckUnsatProof(php, corrupted); err == nil {
		t.Fatal("corrupted proof (bogus leading unit) accepted")
	}

	// An empty proof must be rejected: the formula does not refute itself by
	// unit propagation.
	if err := CheckUnsatProof(php, Proof{}); err == nil {
		t.Fatal("empty proof accepted for php(4,3)")
	}

	// Deleting the about-to-be-resolved clauses before they are used must
	// break the derivation: turn each addition into (delete everything it
	// would propagate with) — approximated by deleting the entire formula
	// first, after which nothing non-trivial is RUP.
	var wipe []Step
	for _, c := range php.Clauses {
		wipe = append(wipe, Step{Del: true, Lits: c})
	}
	if err := CheckUnsatProof(php, NewProof(append(wipe, proof.Steps()...)...)); err == nil {
		t.Fatal("proof accepted after deleting all premises")
	}
}

func TestDeletionChangesRUPStatus(t *testing.T) {
	// f = (x∨y)(x∨¬y)(¬x∨y)(¬x∨¬y). The unit [x] is RUP — unless (x∨y) is
	// deleted first, in which case assuming ¬x propagates only ¬y and no
	// conflict arises. This pins down that deletions are honored.
	f := cnf.New(2)
	f.Add(1, 2)
	f.Add(1, -2)
	f.Add(-1, 2)
	f.Add(-1, -2)

	good := NewProof(Step{Lits: []cnf.Lit{cnf.Pos(0)}})
	if err := CheckUnsatProof(f, good); err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	bad := NewProof(
		Step{Del: true, Lits: cnf.NewClause(1, 2)},
		Step{Lits: []cnf.Lit{cnf.Pos(0)}},
	)
	if err := CheckUnsatProof(f, bad); err == nil {
		t.Fatal("proof accepted though its premise was deleted")
	}
}

func TestDRATTextRoundTrip(t *testing.T) {
	php := pigeonhole(4, 3)
	_, proof := solveWithProof(php, sat.KissatOptions())
	var sb strings.Builder
	if err := WriteDRAT(&sb, proof); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseDRAT(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	ps, want := parsed.Steps(), proof.Steps()
	if len(ps) != len(want) {
		t.Fatalf("round trip changed step count: %d vs %d", len(ps), len(want))
	}
	for i := range want {
		if ps[i].Del != want[i].Del || len(ps[i].Lits) != len(want[i].Lits) || ps[i].Hints != nil {
			t.Fatalf("step %d shape mismatch", i)
		}
		for j := range want[i].Lits {
			if ps[i].Lits[j] != want[i].Lits[j] {
				t.Fatalf("step %d literal %d mismatch", i, j)
			}
		}
	}
	if err := CheckUnsatProof(php, parsed); err != nil {
		t.Fatalf("parsed proof rejected: %v", err)
	}
}

func TestParseDRATErrors(t *testing.T) {
	for _, src := range []string{
		"1 2\n",        // missing terminator
		"1 2 0 3 0\n",  // literals after terminator
		"x 0\n",        // non-integer
		"99999999 0\n", // out of range
		"d 1 2\n",      // unterminated deletion
		"-0 0\n",       // -0 literal
		"1 -0 0\n",     // -0 literal mid-clause
	} {
		if _, err := ParseDRAT(strings.NewReader(src)); err == nil {
			t.Fatalf("expected error for %q", src)
		}
	}
	p, err := ParseDRAT(strings.NewReader("c comment\n\n1 -2 0\nd 1 -2 0\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if ps := p.Steps(); len(ps) != 3 || ps[0].Del || !ps[1].Del || len(ps[2].Lits) != 0 {
		t.Fatalf("unexpected parse: %+v", ps)
	}
}

func TestProofMentioningForeignVariableRejected(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	f.Add(-1)
	p := NewProof(Step{Lits: []cnf.Lit{cnf.Pos(5)}})
	if err := CheckUnsatProof(f, p); err == nil {
		t.Fatal("proof over foreign variables accepted")
	}
}
