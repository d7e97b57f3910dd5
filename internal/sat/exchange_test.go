package sat

import (
	"slices"
	"testing"

	"hyqsat/internal/cnf"
)

// stubExchange is a scripted ClauseExchange: Import yields the queued
// clauses once; Export records what the solver offered.
type stubExchange struct {
	inbox    [][]cnf.Lit
	lbds     []int32
	exported [][]cnf.Lit
}

func (x *stubExchange) Export(lits []cnf.Lit, lbd int32) {
	x.exported = append(x.exported, append([]cnf.Lit(nil), lits...))
}

func (x *stubExchange) Import(yield func(lits []cnf.Lit, lbd int32) bool) {
	for i, c := range x.inbox {
		lbd := int32(2)
		if i < len(x.lbds) {
			lbd = x.lbds[i]
		}
		if !yield(c, lbd) {
			break
		}
	}
	x.inbox = nil
}

func TestImportClauseAttachesAndCounts(t *testing.T) {
	f := cnf.New(4)
	f.Add(1, 2, 3)
	f.Add(-1, 2, 4)
	s := New(f, MiniSATOptions())
	x := &stubExchange{inbox: [][]cnf.Lit{
		{cnf.Pos(0), cnf.Pos(3)}, // genuine binary clause
	}}
	s.SetExchange(x)
	r := s.Solve()
	if r.Status != Sat {
		t.Fatalf("status %v", r.Status)
	}
	if r.Stats.Imported != 1 {
		t.Fatalf("imported %d, want 1", r.Stats.Imported)
	}
}

func TestImportConflictingUnitsSettleUnsat(t *testing.T) {
	// Two conflicting foreign units must settle the solve Unsat at the root
	// before any search happens — the adversarial poisoning scenario whose
	// certification-side rejection internal/portfolio tests.
	f := cnf.New(2)
	f.Add(1, 2)
	s := New(f, MiniSATOptions())
	x := &stubExchange{inbox: [][]cnf.Lit{
		{cnf.Pos(0)},
		{cnf.Neg(0)},
	}}
	s.SetExchange(x)
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("status %v, want Unsat from conflicting imports", r.Status)
	}
}

func TestImportSkipsForeignVarsAndTautologies(t *testing.T) {
	f := cnf.New(2)
	f.Add(1, 2)
	s := New(f, MiniSATOptions())
	x := &stubExchange{inbox: [][]cnf.Lit{
		{cnf.Pos(0), cnf.Pos(7)},             // variable outside the formula
		{cnf.Pos(0), cnf.Neg(0)},             // tautology
		{cnf.Pos(1), cnf.Pos(1), cnf.Pos(1)}, // collapses to a unit
	}}
	s.SetExchange(x)
	r := s.Solve()
	if r.Status != Sat {
		t.Fatalf("status %v", r.Status)
	}
	if r.Stats.Imported != 1 {
		t.Fatalf("imported %d, want only the deduplicated unit", r.Stats.Imported)
	}
	if !r.Model[1] {
		t.Fatal("imported unit not honoured in the model")
	}
}

func TestExchangeExportsLearnts(t *testing.T) {
	// A formula that forces conflicts must publish learnt clauses.
	f := cnf.New(8)
	// Pigeonhole-ish contradiction fragment: plenty of conflicts.
	f.Add(1, 2)
	f.Add(1, -2)
	f.Add(-1, 3, 4)
	f.Add(-1, 3, -4)
	f.Add(-1, -3, 4)
	f.Add(-1, -3, -4)
	s := New(f, MiniSATOptions())
	x := &stubExchange{}
	s.SetExchange(x)
	if r := s.Solve(); r.Status != Unsat {
		t.Fatalf("status %v", r.Status)
	}
	if len(x.exported) == 0 {
		t.Fatal("no learnt clauses exported")
	}
}

func TestImportHotPathAllocs(t *testing.T) {
	// The inert import paths (tautology, duplicate-heavy clauses) run at
	// every restart of every sharing solver; they must not allocate once the
	// scratch mark table exists.
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	f := cnf.New(8)
	f.Add(1, 2, 3)
	f.Add(-1, 4, 5)
	s := New(f, MiniSATOptions())
	taut := []cnf.Lit{cnf.Pos(0), cnf.Neg(0), cnf.Pos(1)}
	s.ImportClause(taut, 2) // warm up the lazy mark table
	if avg := testing.AllocsPerRun(1000, func() { s.ImportClause(taut, 2) }); avg != 0 {
		t.Fatalf("tautology import allocates %.1f/op, want 0", avg)
	}
}

func TestImportSteadyStateAllocs(t *testing.T) {
	// Attaching real foreign clauses may only allocate through amortised
	// arena/watch growth — per-import cost must stay far below one
	// steady-state allocation.
	if raceEnabled {
		t.Skip("allocation gate skipped under the race detector")
	}
	f := cnf.New(64)
	f.Add(1, 2, 3)
	s := New(f, MiniSATOptions())
	var i int
	clause := make([]cnf.Lit, 3)
	warm := func() {
		// Cycle through distinct ternary clauses over the formula's variables.
		a := cnf.Var(i % 60)
		clause[0] = cnf.Pos(a)
		clause[1] = cnf.Neg(a + 1)
		clause[2] = cnf.Pos(a + 2)
		i++
		s.ImportClause(clause, 2)
	}
	for j := 0; j < 2000; j++ {
		warm()
	}
	if avg := testing.AllocsPerRun(2000, warm); avg > 0.5 {
		t.Fatalf("steady-state import allocates %.2f/op, want amortised < 0.5", avg)
	}
}

func TestExchangeAttachedNoTrafficBitIdentical(t *testing.T) {
	// With an exchange attached but silent, the search must be bit-identical
	// to an unattached run (determinism satellite, solver side).
	f := cnf.New(30)
	// Deterministic pseudo-random 3-SAT without package deps.
	x := uint64(42)
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
	run := func(attach bool) Result {
		s := New(f.Copy(), MiniSATOptions())
		if attach {
			s.SetExchange(&stubExchange{})
		}
		return s.Solve()
	}
	a, b := run(false), run(true)
	if a.Status != b.Status {
		t.Fatalf("status diverged: %v vs %v", a.Status, b.Status)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverged:\n  off: %+v\n  on:  %+v", a.Stats, b.Stats)
	}
	if len(a.Model) != len(b.Model) {
		t.Fatalf("model length diverged")
	}
	for i := range a.Model {
		if a.Model[i] != b.Model[i] {
			t.Fatalf("model diverged at var %d", i)
		}
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
