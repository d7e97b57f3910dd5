package sat

import (
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
)

// satisfiable3SAT rejection-samples random 3-SAT until an instance the solver
// reports Sat (deterministic in seed).
func satisfiable3SAT(nVars, nClauses int, seed int64) *cnf.Formula {
	for k := int64(0); ; k++ {
		f := random3SAT(rand.New(rand.NewSource(seed*1_000_003+k)), nVars, nClauses)
		if New(f.Copy(), MiniSATOptions()).Solve().Status == Sat {
			return f
		}
	}
}

// reducingInstance scans seeds for a random 3-SAT instance whose solve runs
// at least one arena GC (i.e. reduceDB actually removed clauses).
func reducingInstance(t *testing.T, opts Options) *cnf.Formula {
	t.Helper()
	for seed := int64(0); seed < 50; seed++ {
		f := random3SAT(rand.New(rand.NewSource(seed)), 100, 440)
		s := New(f.Copy(), opts)
		s.Solve()
		if s.stats.ArenaGCs > 0 {
			return f
		}
	}
	t.Fatal("no instance triggered an arena GC in 50 seeds")
	return nil
}

// checkNoDeadCrefs asserts the reduce/GC contract: no deleted or relocated
// cref survives in any watch list, the learnt list, the problem list, or the
// reason slots of the current trail; and the arena holds no wasted words.
func checkNoDeadCrefs(t *testing.T, s *Solver) {
	t.Helper()
	check := func(where string, c cref) {
		if c < 0 || int(c) >= len(s.ca.data) {
			t.Fatalf("%s: cref %d out of arena bounds [0,%d)", where, c, len(s.ca.data))
		}
		if s.ca.deleted(c) {
			t.Fatalf("%s: deleted cref %d survived", where, c)
		}
		if s.ca.data[c]&hdrReloc != 0 {
			t.Fatalf("%s: relocated (stale) cref %d survived", where, c)
		}
	}
	for li, ws := range s.watches {
		for _, w := range ws {
			c := w.c
			if isBinRef(c) {
				c = binRef(c)
			}
			check("watch list "+cnf.Lit(li).String(), c)
		}
	}
	for _, c := range s.learnts {
		check("learnts", c)
	}
	for _, c := range s.problem {
		check("problem", c)
	}
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			check("reason", r)
		}
	}
	if s.ca.wasted != 0 {
		t.Fatalf("arena reports %d wasted words after GC", s.ca.wasted)
	}
}

// TestNoDeletedWatchersAfterReduce pins the satellite contract: immediately
// after every reducing reduceDB, watch lists are fully purged and s.learnts
// holds no dead cref (so claBump's rescale loop never touches dead clauses).
func TestNoDeletedWatchersAfterReduce(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			f := reducingInstance(t, opts)
			s := New(f, opts)
			var lastGCs int64
			checks := 0
			for {
				st := s.Step()
				if g := s.stats.ArenaGCs; g != lastGCs {
					lastGCs = g
					checks++
					checkNoDeadCrefs(t, s)
				}
				if st != StepContinue {
					break
				}
			}
			if checks == 0 {
				t.Fatal("solve ran no arena GC; instance selection is broken")
			}
			if s.stats.Removed == 0 {
				t.Fatal("solve removed no learnt clauses")
			}
		})
	}
}

// TestSolveDeterministicAcrossGC pins that two solves with the same seed
// produce identical Stats (and verdicts) even though the clause arena is
// garbage-collected mid-search: GC relocation must not perturb the search.
func TestSolveDeterministicAcrossGC(t *testing.T) {
	for name, opts := range allConfigs() {
		t.Run(name, func(t *testing.T) {
			f := reducingInstance(t, opts)
			s1 := New(f.Copy(), opts)
			r1 := s1.Solve()
			s2 := New(f.Copy(), opts)
			r2 := s2.Solve()
			if s1.stats.ArenaGCs == 0 {
				t.Fatal("no GC cycle during the solve")
			}
			if r1.Status != r2.Status {
				t.Fatalf("verdicts diverged: %v vs %v", r1.Status, r2.Status)
			}
			if s1.stats != s2.stats {
				t.Fatalf("stats diverged across identical solves:\n  %+v\n  %+v",
					s1.stats, s2.stats)
			}
		})
	}
}

// TestPropagateSteadyStateAllocs gate-enforces the tentpole contract: the
// steady-state propagation loop (decision replay over a warmed solver)
// performs zero allocations.
func TestPropagateSteadyStateAllocs(t *testing.T) {
	f := satisfiable3SAT(100, 430, 3)
	pb, err := NewPropagateBench(f, MiniSATOptions(), 2000)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		pb.Run() // let watch lists and the trail reach their high-water marks
	}
	if allocs := testing.AllocsPerRun(50, func() { pb.Run() }); allocs != 0 {
		t.Fatalf("steady-state propagation allocated %.1f times per replay, want 0", allocs)
	}
}

// TestAnalyzeSteadyStateAllocs gate-enforces zero allocations in conflict
// analysis (first-UIP resolution, minimisation, and LBD computation) once the
// scratch buffers are warm. analyze leaves the trail untouched, so the same
// conflict can be analyzed repeatedly.
func TestAnalyzeSteadyStateAllocs(t *testing.T) {
	f := pigeonhole(7, 6)
	s := New(f, MiniSATOptions())
	conflict := crefUndef
	for conflict == crefUndef {
		conflict = s.propagate()
		if conflict != crefUndef {
			break
		}
		v := s.pickBranchVar()
		if v == cnf.NoVar {
			t.Fatal("no conflict reached before a full assignment")
		}
		s.newDecisionLevel()
		s.enqueue(cnf.MkLit(v, !s.polarity[v]), crefUndef)
	}
	learnt, _ := s.analyze(conflict) // warm scratch
	s.computeLBD(learnt)
	allocs := testing.AllocsPerRun(100, func() {
		l, _ := s.analyze(conflict)
		s.computeLBD(l)
	})
	if allocs != 0 {
		t.Fatalf("steady-state conflict analysis allocated %.1f times per conflict, want 0", allocs)
	}
}

// TestComputeLBDMatchesNaive cross-checks the stamp-based LBD against a
// straightforward map-based count.
func TestComputeLBDMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	f := cnf.New(50)
	s := New(f, MiniSATOptions())
	for i := range s.level {
		s.level[i] = int32(rng.Intn(10))
	}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(12) + 1
		lits := make([]cnf.Lit, n)
		for i := range lits {
			lits[i] = cnf.MkLit(cnf.Var(rng.Intn(50)), rng.Intn(2) == 0)
		}
		seen := map[int32]struct{}{}
		for _, l := range lits {
			seen[s.level[l.Var()]] = struct{}{}
		}
		if got := s.computeLBD(lits); got != int32(len(seen)) {
			t.Fatalf("trial %d: computeLBD=%d, naive=%d", trial, got, len(seen))
		}
	}
}

// TestBinaryClauseEncoding pins the watcher encoding: binary clauses are
// watched under binRef (so propagation takes the fast path), binRef is its
// own inverse, and binary implication chains still produce correct reasons
// for conflict analysis.
func TestBinaryClauseEncoding(t *testing.T) {
	for _, c := range []cref{0, 1, 7, 1 << 20} {
		if !isBinRef(binRef(c)) {
			t.Fatalf("binRef(%d) not recognised as binary", c)
		}
		if binRef(binRef(c)) != c {
			t.Fatalf("binRef not an involution at %d", c)
		}
	}
	if isBinRef(crefUndef) {
		t.Fatal("crefUndef must not read as a binary ref")
	}

	// x1 ∧ (¬x1∨x2) ∧ (¬x2∨x3): pure binary implication chain.
	f := cnf.New(3)
	f.Add(1)
	f.Add(-1, 2)
	f.Add(-2, 3)
	s := New(f, MiniSATOptions())
	binWatchers := 0
	for _, ws := range s.watches {
		for _, w := range ws {
			if isBinRef(w.c) {
				binWatchers++
				if sz := s.ca.size(binRef(w.c)); sz != 2 {
					t.Fatalf("binary watcher names a clause of size %d", sz)
				}
			}
		}
	}
	if binWatchers != 4 {
		t.Fatalf("expected 4 binary watchers (2 clauses × 2), found %d", binWatchers)
	}
	r := s.Solve()
	if r.Status != Sat || !r.Model[0] || !r.Model[1] || !r.Model[2] {
		t.Fatalf("binary chain: %v %v", r.Status, r.Model)
	}
	if r.Stats.Decisions != 0 {
		t.Fatalf("binary chain needed %d decisions, want pure propagation", r.Stats.Decisions)
	}

	// Binary-only Unsat: conflict analysis must resolve through binary
	// reasons (where the implied literal is not positionally first).
	g := cnf.New(2)
	g.Add(1, 2)
	g.Add(1, -2)
	g.Add(-1, 2)
	g.Add(-1, -2)
	if r := New(g, MiniSATOptions()).Solve(); r.Status != Unsat {
		t.Fatalf("binary Unsat square: %v", r.Status)
	}
}

// TestArenaStats sanity-checks the introspection hook.
func TestArenaStats(t *testing.T) {
	f := cnf.New(3)
	f.Add(1, 2, 3)
	f.Add(-1, -2)
	s := New(f, MiniSATOptions())
	words, wasted, gcs := s.ArenaStats()
	want := 2*clauseHeaderWords + 3 + 2
	if words != want {
		t.Fatalf("arena words = %d, want %d", words, want)
	}
	if wasted != 0 || gcs != 0 {
		t.Fatalf("fresh solver reports wasted=%d gcs=%d", wasted, gcs)
	}
}
