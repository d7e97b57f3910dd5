package sat

import (
	"math/rand"
	"slices"
	"testing"

	"hyqsat/internal/cnf"
)

// bruteForce determines satisfiability by exhaustive enumeration (≤20 vars).
func bruteForce(f *cnf.Formula) bool {
	if f.NumVars > 20 {
		panic("bruteForce: too many variables")
	}
	for mask := 0; mask < 1<<f.NumVars; mask++ {
		a := cnf.NewAssignment(f.NumVars)
		for i := 0; i < f.NumVars; i++ {
			a.Set(cnf.Var(i), mask&(1<<i) != 0)
		}
		if a.Satisfies(f) {
			return true
		}
	}
	return false
}

func randomFormula(rng *rand.Rand, nVars, nClauses, maxLen int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		k := rng.Intn(maxLen) + 1
		c := make(cnf.Clause, k)
		for j := range c {
			c[j] = cnf.MkLit(cnf.Var(rng.Intn(nVars)), rng.Intn(2) == 0)
		}
		f.AddClause(c)
	}
	return f
}

func random3SAT(rng *rand.Rand, nVars, nClauses int) *cnf.Formula {
	f := cnf.New(nVars)
	for i := 0; i < nClauses; i++ {
		perm := rng.Perm(nVars)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		f.AddClause(c)
	}
	return f
}

func allConfigs() map[string]Options {
	return map[string]Options{
		"minisat": MiniSATOptions(),
		"kissat":  KissatOptions(),
	}
}

func TestTrivial(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			f := cnf.New(1)
			f.Add(1)
			r := New(f, opts).Solve()
			if r.Status != Sat || !r.Model[0] {
				t.Fatalf("unit clause: %v %v", r.Status, r.Model)
			}

			g := cnf.New(1)
			g.Add(1)
			g.Add(-1)
			if r := New(g, opts).Solve(); r.Status != Unsat {
				t.Fatalf("x ∧ ¬x should be Unsat, got %v", r.Status)
			}

			h := cnf.New(0)
			if r := New(h, opts).Solve(); r.Status != Sat {
				t.Fatalf("empty formula should be Sat, got %v", r.Status)
			}

			e := cnf.New(2)
			e.AddClause(cnf.Clause{})
			if r := New(e, opts).Solve(); r.Status != Unsat {
				t.Fatalf("empty clause should be Unsat, got %v", r.Status)
			}
		})
	}
}

func TestChainImplication(t *testing.T) {
	// x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3) ∧ … forces all true by pure propagation.
	f := cnf.New(30)
	f.Add(1)
	for i := 1; i < 30; i++ {
		f.Add(-i, i+1)
	}
	r := New(f, MiniSATOptions()).Solve()
	if r.Status != Sat {
		t.Fatalf("status %v", r.Status)
	}
	for i, b := range r.Model {
		if !b {
			t.Fatalf("var %d should be true", i+1)
		}
	}
	if r.Stats.Decisions != 0 {
		t.Fatalf("pure propagation made %d decisions", r.Stats.Decisions)
	}
}

func TestPigeonholeUnsat(t *testing.T) {
	// PHP(4,3): 4 pigeons in 3 holes — classic small Unsat instance that
	// requires genuine conflict-driven search.
	f := pigeonhole(4, 3)
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			r := New(f.Copy(), opts).Solve()
			if r.Status != Unsat {
				t.Fatalf("PHP(4,3) = %v, want Unsat", r.Status)
			}
			if r.Stats.Conflicts == 0 {
				t.Fatal("expected conflicts on PHP(4,3)")
			}
		})
	}
}

func pigeonhole(pigeons, holes int) *cnf.Formula {
	f := cnf.New(pigeons * holes)
	at := func(p, h int) int { return p*holes + h + 1 }
	for p := 0; p < pigeons; p++ {
		c := make([]int, holes)
		for h := 0; h < holes; h++ {
			c[h] = at(p, h)
		}
		f.Add(c...)
	}
	for h := 0; h < holes; h++ {
		for p1 := 0; p1 < pigeons; p1++ {
			for p2 := p1 + 1; p2 < pigeons; p2++ {
				f.Add(-at(p1, h), -at(p2, h))
			}
		}
	}
	return f
}

func TestAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				nv := rng.Intn(10) + 2
				nc := rng.Intn(30) + 1
				f := randomFormula(rng, nv, nc, 4)
				want := bruteForce(f)
				r := New(f.Copy(), opts).Solve()
				got := r.Status == Sat
				if r.Status == Unknown {
					t.Fatalf("trial %d: Unknown without budget", trial)
				}
				if got != want {
					t.Fatalf("trial %d: solver=%v brute=%v formula=%v", trial, got, want, f)
				}
				if got && !cnf.FromBools(r.Model).Satisfies(f) {
					t.Fatalf("trial %d: reported model does not satisfy", trial)
				}
			}
		})
	}
}

func TestPhaseTransition3SATModels(t *testing.T) {
	// Larger random 3-SAT; whenever Sat, the model must check out.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		f := random3SAT(rng, 50, 210)
		r := New(f.Copy(), MiniSATOptions()).Solve()
		if r.Status == Sat && !cnf.FromBools(r.Model).Satisfies(f) {
			t.Fatalf("trial %d: bad model", trial)
		}
		if r.Status == Unknown {
			t.Fatalf("trial %d: Unknown without budget", trial)
		}
	}
}

func TestSolversAgreeOnRandom3SAT(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 15; trial++ {
		f := random3SAT(rng, 40, 168)
		r1 := New(f.Copy(), MiniSATOptions()).Solve()
		r2 := New(f.Copy(), KissatOptions()).Solve()
		if r1.Status != r2.Status {
			t.Fatalf("trial %d: minisat=%v kissat=%v", trial, r1.Status, r2.Status)
		}
	}
}

func TestConflictBudget(t *testing.T) {
	opts := MiniSATOptions()
	opts.MaxConflicts = 3
	f := pigeonhole(6, 5)
	r := New(f, opts).Solve()
	if r.Status != Unknown {
		t.Fatalf("status %v, want Unknown under tiny budget", r.Status)
	}
	if r.Stats.Conflicts < 3 {
		t.Fatalf("conflicts = %d", r.Stats.Conflicts)
	}
}

func TestConflictBudgetAndResume(t *testing.T) {
	opts := MiniSATOptions()
	opts.MaxConflicts = 5
	s := New(pigeonhole(5, 4), opts)
	r := s.Solve()
	if r.Status != Unknown {
		t.Fatalf("status %v, want Unknown", r.Status)
	}
	// Lift the budget and resume: must reach Unsat.
	s.opts.MaxConflicts = 0
	r = s.Solve()
	if r.Status != Unsat {
		t.Fatalf("resumed status %v, want Unsat", r.Status)
	}
}

func TestStepGranularity(t *testing.T) {
	f := random3SAT(rand.New(rand.NewSource(1)), 20, 85)
	s := New(f, MiniSATOptions())
	steps := 0
	for {
		st := s.Step()
		steps++
		if st == StepSat || st == StepUnsat {
			break
		}
		if steps > 1_000_000 {
			t.Fatal("step did not terminate")
		}
	}
	if got := s.Stats().Iterations; got != int64(steps) {
		// The final Step that returns Sat/Unsat may or may not consume an
		// iteration; allow off-by-one.
		if got != int64(steps)-1 && got != int64(steps) {
			t.Fatalf("iterations %d vs steps %d", got, steps)
		}
	}
}

func TestClauseScoresBumpOnConflict(t *testing.T) {
	f := pigeonhole(4, 3)
	s := New(f, MiniSATOptions())
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("status %v", r.Status)
	}
	scores := s.ClauseScores()
	if len(scores) != len(f.Clauses) {
		t.Fatalf("%d scores for %d clauses", len(scores), len(f.Clauses))
	}
	bumped := false
	for i, sc := range scores {
		if sc > 1.0 {
			bumped = true
		}
		if sc < 1.0 {
			t.Fatalf("clause %d score %v < 1", i, sc)
		}
	}
	if !bumped {
		t.Fatal("no clause scores bumped despite conflicts")
	}
}

func TestVisitCounters(t *testing.T) {
	opts := MiniSATOptions()
	opts.TrackVisits = true
	s := New(pigeonhole(4, 3), opts)
	s.Solve()
	prop, conf := s.VisitCounts()
	if prop == nil || conf == nil {
		t.Fatal("visit counters not allocated")
	}
	var totalProp, totalConf int64
	for i := range prop {
		totalProp += prop[i]
		totalConf += conf[i]
	}
	if totalProp == 0 {
		t.Fatal("no propagation visits recorded")
	}
	if totalConf == 0 {
		t.Fatal("no conflict visits recorded")
	}
}

func TestPhaseHints(t *testing.T) {
	// With no constraints beyond a wide clause, phase hints decide polarity.
	f := cnf.New(5)
	f.Add(1, 2, 3, 4, 5)
	s := New(f, MiniSATOptions())
	a := cnf.NewAssignment(5)
	for v := cnf.Var(0); v < 5; v++ {
		a.Set(v, true)
	}
	s.SetPhaseHints(a)
	r := s.Solve()
	if r.Status != Sat {
		t.Fatalf("status %v", r.Status)
	}
	for i, b := range r.Model {
		if !b {
			t.Fatalf("phase hint ignored for var %d", i)
		}
	}
}

func TestSetPhaseHintsFromAssignment(t *testing.T) {
	f := cnf.New(4)
	f.Add(1, 2, 3, 4)
	a := cnf.NewAssignment(4)
	a.Set(0, false)
	a.Set(1, true)
	s := New(f, MiniSATOptions())
	s.SetPhaseHints(a)
	r := s.Solve()
	if r.Status != Sat {
		t.Fatalf("status %v", r.Status)
	}
	if r.Model[0] {
		t.Fatal("hint false for var 0 ignored")
	}
	if !r.Model[1] {
		t.Fatal("hint true for var 1 ignored")
	}
}

func TestPrioritizeVars(t *testing.T) {
	f := random3SAT(rand.New(rand.NewSource(3)), 30, 120)
	s := New(f, MiniSATOptions())
	want := []cnf.Var{7, 13, 21}
	s.PrioritizeVars(want)
	// The first decisions must pick the prioritised variables.
	decided := map[cnf.Var]bool{}
	for i := 0; i < 3; i++ {
		if st := s.Step(); st != StepContinue {
			t.Fatalf("step %d returned %v", i, st)
		}
		for _, l := range s.trail {
			decided[l.Var()] = true
		}
	}
	for _, v := range want {
		if !decided[v] && s.VarValue(v) == cnf.Undef {
			t.Fatalf("prioritised var %d not decided in first steps", v)
		}
	}
}

func TestUnsatisfiedClauses(t *testing.T) {
	f := cnf.New(3)
	f.Add(1, 2)
	f.Add(-1, 3)
	s := New(f, MiniSATOptions())
	u := s.UnsatisfiedClauses(nil)
	if len(u) != 2 {
		t.Fatalf("initially unsatisfied = %v", u)
	}
	if r := s.Solve(); r.Status != Sat {
		t.Fatal("should be Sat")
	}
	if u := s.UnsatisfiedClauses(nil); len(u) != 0 {
		t.Fatalf("after Sat, unsatisfied = %v", u)
	}
}

func TestDuplicateAndTautologyInput(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 1, 2)
	f.Add(1, -1) // tautology: must be ignored, not crash watchers
	f.Add(-2)
	r := New(f, MiniSATOptions()).Solve()
	if r.Status != Sat {
		t.Fatalf("status %v", r.Status)
	}
	if !r.Model[0] || r.Model[1] {
		t.Fatalf("model %v", r.Model)
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(2, int64(i)); got != w {
			t.Fatalf("luby(2,%d) = %d, want %d", i, got, w)
		}
	}
}

func TestReduceDBKeepsCorrectness(t *testing.T) {
	// Force many learnt clauses and reductions; result must stay correct.
	opts := MiniSATOptions()
	f := pigeonhole(7, 6)
	s := New(f, opts)
	r := s.Solve()
	if r.Status != Unsat {
		t.Fatalf("PHP(7,6) = %v", r.Status)
	}
	if r.Stats.Removed == 0 {
		t.Log("note: no clauses were removed (DB never filled); widening instance would exercise reduceDB")
	}
}

func TestStatsMonotonicity(t *testing.T) {
	f := random3SAT(rand.New(rand.NewSource(11)), 30, 129)
	s := New(f, MiniSATOptions())
	prev := s.Stats()
	for i := 0; i < 100; i++ {
		st := s.Step()
		cur := s.Stats()
		if cur.Iterations < prev.Iterations || cur.Conflicts < prev.Conflicts ||
			cur.Decisions < prev.Decisions || cur.Propagations < prev.Propagations {
			t.Fatal("stats went backwards")
		}
		prev = cur
		if st != StepContinue {
			break
		}
	}
}

func TestVarHeapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	act := make([]float64, 50)
	h := newVarHeap(act)
	for i := range act {
		act[i] = rng.Float64()
		h.push(cnf.Var(i))
	}
	// Random updates.
	for i := 0; i < 200; i++ {
		v := cnf.Var(rng.Intn(50))
		act[v] = rng.Float64() * 10
		h.update(v)
	}
	// Pops must come out in non-increasing activity order.
	last := 1e18
	for !h.empty() {
		v := h.pop()
		if act[v] > last+1e-12 {
			t.Fatalf("heap violated order: %v after %v", act[v], last)
		}
		last = act[v]
	}
}

func TestModelIsStable(t *testing.T) {
	f := random3SAT(rand.New(rand.NewSource(13)), 25, 100)
	s := New(f, MiniSATOptions())
	r := s.Solve()
	if r.Status != Sat {
		t.Skip("instance happened to be Unsat")
	}
	again := s.Solve()
	if again.Status != Sat {
		t.Fatal("re-Solve after Sat changed status")
	}
}

func TestInterruptStopsSearchAndRearms(t *testing.T) {
	// A pre-set interrupt must stop the very next search call with Unknown;
	// clearing it must make the same solver usable again.
	f := cnf.New(30)
	x := uint64(7)
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	for i := 0; i < 126; i++ {
		c := make(cnf.Clause, 0, 3)
		for len(c) < 3 {
			l := cnf.MkLit(cnf.Var(next(30)), next(2) == 1)
			if !slices.Contains(c, l) && !slices.Contains(c, l.Not()) {
				c = append(c, l)
			}
		}
		f.AddClause(c)
	}
	s := New(f, MiniSATOptions())
	s.Interrupt()
	if r := s.Solve(); r.Status != Unknown {
		t.Fatalf("interrupted solve returned %v, want Unknown", r.Status)
	}
	if r := s.SolveWithAssumptions(nil); r.Status != Unknown {
		t.Fatalf("interrupted assumption solve returned %v, want Unknown", r.Status)
	}
	s.ClearInterrupt()
	if r := s.Solve(); r.Status == Unknown {
		t.Fatal("cleared solver still refuses to search")
	}
}
