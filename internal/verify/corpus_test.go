package verify

import (
	"fmt"
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

// TestCDCLCorpusCertified is the arena-refactor certification corpus: a
// randomized mix of uf20–uf100-scale 3-SAT instances straddling the phase
// transition (so both SAT and UNSAT occur), where every solve is certified —
// model-checked on SAT, proof-checked on UNSAT — across both baseline
// configurations. Every UNSAT proof must check by its hints alone, with no
// lemma falling back to RUP, and check again with its hints stripped.
// check.sh runs it under the race detector.
func TestCDCLCorpusCertified(t *testing.T) {
	instances := 40
	if testing.Short() {
		instances = 10
	}
	configs := map[string]sat.Options{
		"minisat": sat.MiniSATOptions(),
		"kissat":  sat.KissatOptions(),
	}
	var sats, unsats int
	for i, f := range certCorpus(instances) {
		n := f.NumVars
		var verdicts []sat.Status
		for name, opts := range configs {
			rec := NewRecorder()
			s := sat.New(f.Copy(), opts)
			s.SetProofWriter(rec)
			r := s.Solve()
			verdicts = append(verdicts, r.Status)
			switch r.Status {
			case sat.Sat:
				if err := CheckModel(f, r.Model); err != nil {
					t.Fatalf("instance %d (%s, n=%d): invalid model: %v", i, name, n, err)
				}
			case sat.Unsat:
				if err := CheckUnsatProof(f, rec.Proof()); err != nil {
					t.Fatalf("instance %d (%s, n=%d): DRAT proof rejected: %v\n%s",
						i, name, n, err, cnf.DIMACSString(f))
				}
				checkHintsComplete(t, fmt.Sprintf("instance %d (%s)", i, name), f, rec.Proof())
			default:
				t.Fatalf("instance %d (%s): Unknown without a budget", i, name)
			}
		}
		for _, v := range verdicts[1:] {
			if v != verdicts[0] {
				t.Fatalf("instance %d: configs disagree: %v", i, verdicts)
			}
		}
		if verdicts[0] == sat.Sat {
			sats++
		} else {
			unsats++
		}
	}
	if sats == 0 || unsats == 0 {
		t.Fatalf("corpus was one-sided: %d SAT / %d UNSAT — widen the ratio range", sats, unsats)
	}
	t.Logf("certified %d instances (%d SAT, %d UNSAT)", instances, sats, unsats)
}

// checkHintsComplete fails the test unless p, a solver's UNSAT proof of f,
// checks with no addition falling back from its hints to RUP, and checks by
// RUP alone once its hints are stripped: a solver whose hint emission
// degrades fails here though its proofs still check.
func checkHintsComplete(t *testing.T, name string, f *cnf.Formula, p Proof) {
	t.Helper()
	if !p.hinted {
		t.Fatalf("%s: the proof carries no hints", name)
	}
	fallbacks, err := checkUnsatProof(f, p, 1, proofChunk)
	if err != nil {
		t.Fatalf("%s: proof rejected: %v", name, err)
	}
	if fallbacks != 0 {
		t.Fatalf("%s: %d lemmas fell back from their hints to RUP", name, fallbacks)
	}
	steps := p.Steps()
	for i := range steps {
		steps[i].Hints = nil
	}
	if err := CheckUnsatProof(f, NewProof(steps...)); err != nil {
		t.Fatalf("%s: proof rejected with its hints stripped: %v", name, err)
	}
}

// certCorpus returns the first instances formulas of the certification
// corpus: uniform random 3-SAT over 20–100 variables at 3.6–5.2 clauses per
// variable, deterministic.
func certCorpus(instances int) []*cnf.Formula {
	rng := rand.New(rand.NewSource(20260806))
	out := make([]*cnf.Formula, instances)
	for i := range out {
		n := 20 + rng.Intn(81)           // 20..100 variables
		ratio := 3.6 + rng.Float64()*1.6 // 3.6..5.2 clause/var
		f := cnf.New(n)
		for c := 0; c < int(ratio*float64(n)); c++ {
			perm := rng.Perm(n)[:3]
			cl := make(cnf.Clause, 3)
			for j, v := range perm {
				cl[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 1)
			}
			f.AddClause(cl)
		}
		out[i] = f
	}
	return out
}

// TestCDCLCorpusDifferential cross-checks the arena-based solver against the
// reference DPLL oracle on a fresh randomized corpus (beyond the standing
// TestDiffRandom* harness, this one pins the post-refactor solver at uf-scale
// sizes with shrinking on failure).
func TestCDCLCorpusDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential corpus is slow; run without -short")
	}
	solvers := []DiffSolver{
		{Name: "minisat-arena", Solve: func(f *cnf.Formula) (sat.Status, []bool) {
			r := sat.New(f, sat.MiniSATOptions()).Solve()
			return r.Status, r.Model
		}},
		{Name: "kissat-arena", Solve: func(f *cnf.Formula) (sat.Status, []bool) {
			r := sat.New(f, sat.KissatOptions()).Solve()
			return r.Status, r.Model
		}},
	}
	ds, satN, unsatN := DiffRandom(DiffConfig{
		Instances: 150,
		MinVars:   10,
		MaxVars:   24,
		MinRatio:  3.4,
		MaxRatio:  5.4,
		Seed:      624,
	}, solvers)
	if len(ds) > 0 {
		t.Fatal(FormatDisagreements(ds))
	}
	if satN == 0 || unsatN == 0 {
		t.Fatalf("differential corpus one-sided: %d/%d", satN, unsatN)
	}
}
