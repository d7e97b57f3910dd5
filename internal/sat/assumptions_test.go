package sat

import (
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
)

func TestAssumptionsBasic(t *testing.T) {
	// (x1 ∨ x2) ∧ (¬x1 ∨ x3)
	f := cnf.New(3)
	f.Add(1, 2)
	f.Add(-1, 3)
	s := New(f, MiniSATOptions())

	r := s.SolveWithAssumptions([]cnf.Lit{cnf.Pos(0)})
	if r.Status != Sat || !r.Model[0] || !r.Model[2] {
		t.Fatalf("assume x1: %v %v", r.Status, r.Model)
	}
	r = s.SolveWithAssumptions([]cnf.Lit{cnf.Neg(0)})
	if r.Status != Sat || r.Model[0] || !r.Model[1] {
		t.Fatalf("assume ¬x1: %v %v", r.Status, r.Model)
	}
}

func TestAssumptionsUnsatUnderButSatGlobally(t *testing.T) {
	// x1 ∨ x2, plus assumptions ¬x1 ∧ ¬x2 → Unsat under assumptions only.
	f := cnf.New(2)
	f.Add(1, 2)
	s := New(f, MiniSATOptions())
	r := s.SolveWithAssumptions([]cnf.Lit{cnf.Neg(0), cnf.Neg(1)})
	if r.Status != Unsat || !r.AssumptionsFailed {
		t.Fatalf("want assumption failure, got %v failed=%v", r.Status, r.AssumptionsFailed)
	}
	// The solver must remain usable and find the global model.
	r = s.Solve()
	if r.Status != Sat {
		t.Fatalf("solver unusable after assumption failure: %v", r.Status)
	}
}

func TestAssumptionsGloballyUnsat(t *testing.T) {
	f := cnf.New(1)
	f.Add(1)
	f.Add(-1)
	s := New(f, MiniSATOptions())
	r := s.SolveWithAssumptions(nil)
	if r.Status != Unsat || r.AssumptionsFailed {
		t.Fatalf("global unsat mislabelled: %v failed=%v", r.Status, r.AssumptionsFailed)
	}
}

func TestAssumptionsIncrementalAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nv := rng.Intn(7) + 3
		f := randomFormula(rng, nv, rng.Intn(20)+3, 3)
		s := New(f.Copy(), MiniSATOptions())
		// Several assumption sets against the same solver instance.
		for q := 0; q < 4; q++ {
			k := rng.Intn(nv-1) + 1
			assumps := make([]cnf.Lit, 0, k)
			seen := map[cnf.Var]bool{}
			for len(assumps) < k {
				v := cnf.Var(rng.Intn(nv))
				if seen[v] {
					continue
				}
				seen[v] = true
				assumps = append(assumps, cnf.MkLit(v, rng.Intn(2) == 0))
			}
			// Brute-force reference: conjoin assumptions as units.
			g := f.Copy()
			for _, a := range assumps {
				g.AddClause(cnf.Clause{a})
			}
			want := bruteForce(g)
			r := s.SolveWithAssumptions(assumps)
			if (r.Status == Sat) != want {
				t.Fatalf("trial %d/%d: got %v want sat=%v (assumps %v)",
					trial, q, r.Status, want, assumps)
			}
			if r.Status == Sat {
				m := cnf.FromBools(r.Model)
				if !m.Satisfies(f) {
					t.Fatal("model violates formula")
				}
				for _, a := range assumps {
					if m.Lit(a) != cnf.True {
						t.Fatalf("model violates assumption %v", a)
					}
				}
			}
		}
	}
}

func TestAssumptionsRepeatedLiteral(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	s := New(f, MiniSATOptions())
	r := s.SolveWithAssumptions([]cnf.Lit{cnf.Pos(0), cnf.Pos(0)})
	if r.Status != Sat || !r.Model[0] {
		t.Fatalf("repeated assumption: %v", r.Status)
	}
}

// TestAssumptionsRepeatedLiteralDeepLevels repeats one assumption until its
// empty levels outnumber the variables, then needs conflicts above them: the
// per-level LBD scratch must cover every level, not just one per variable.
func TestAssumptionsRepeatedLiteralDeepLevels(t *testing.T) {
	// Every clause over x2..x4 but (¬x2 ∨ ¬x3 ∨ ¬x4): negative-phase
	// decisions on x2..x4 above the eight x1 levels meet conflicts before
	// the one model.
	f := cnf.New(4)
	for mask := 0; mask < 7; mask++ {
		c := make([]int, 3)
		for j := range c {
			c[j] = j + 2
			if mask>>j&1 == 1 {
				c[j] = -c[j]
			}
		}
		f.Add(c...)
	}
	s := New(f, MiniSATOptions())
	assumps := make([]cnf.Lit, 8)
	for i := range assumps {
		assumps[i] = cnf.Pos(0)
	}
	r := s.SolveWithAssumptions(assumps)
	if r.Status != Sat || !r.Model[0] || !r.Model[1] || !r.Model[2] || !r.Model[3] {
		t.Fatalf("got %v %v, want the model 1 2 3 4", r.Status, r.Model)
	}
	if r.Stats.Conflicts == 0 {
		t.Fatal("the search met no conflict above the repeated assumption's levels")
	}
}

// solveDepth3Cubes solves the eight cubes over variables 0–2 in turn on s,
// as a cube worker does, and returns the results in cube order (cube mask
// bit j set means variable j is negated).
func solveDepth3Cubes(s *Solver) []Result {
	results := make([]Result, 8)
	for mask := range results {
		cube := make([]cnf.Lit, 3)
		for j := range cube {
			cube[j] = cnf.MkLit(cnf.Var(j), mask>>j&1 == 1)
		}
		results[mask] = s.SolveWithAssumptions(cube)
	}
	return results
}

// kindCounter is a Tracer that counts events by kind.
type kindCounter map[string]int

func (k kindCounter) Enabled() bool                      { return true }
func (k kindCounter) Emit(e obs.Event)                   { k[e.Kind()]++ }
func (k kindCounter) EmitFrom(_ obs.Source, e obs.Event) { k[e.Kind()]++ }

// TestAssumptionSolvesRunFullLoop refutes the eight depth-3 cubes of a
// uuf150 instance on one incremental solver, as a cube worker does, and
// checks that the assumption solves run the whole search loop: every
// conflict reaches the tracer and the conflict-depth histogram, and the
// solver restarts and reduces its learnt database.
func TestAssumptionSolvesRunFullLoop(t *testing.T) {
	f := goldenRandom3SAT(150, 639, 150, Unsat)
	s := New(f.Copy(), MiniSATOptions())
	events := kindCounter{}
	s.SetTracer(events)
	depth := obs.NewRegistry().Histogram("conflict_depth", []float64{1, 10, 100})
	s.SetMetrics(Metrics{ConflictDepth: depth})
	for mask, r := range solveDepth3Cubes(s) {
		if r.Status != Unsat {
			t.Fatalf("cube %d: %v, want Unsat", mask, r.Status)
		}
	}
	st := s.Stats()
	if got := int64(events["conflict"]); got != st.Conflicts {
		t.Errorf("%d conflict events for %d conflicts", got, st.Conflicts)
	}
	if got := depth.Count(); got != st.Conflicts {
		t.Errorf("%d conflict-depth observations for %d conflicts", got, st.Conflicts)
	}
	if int64(events["restart"]) != st.Restarts {
		t.Errorf("%d restart events for %d restarts", events["restart"], st.Restarts)
	}
	if st.Restarts == 0 || st.Removed == 0 {
		t.Errorf("restarts=%d removed=%d over %d conflicts, want both > 0",
			st.Restarts, st.Removed, st.Conflicts)
	}
}
