package sat

import (
	"math/rand"
	"testing"

	"hyqsat/internal/cnf"
)

// TestValueTableConsistent checks the value table after every Step of
// random formulas under both presets, on solvers recycled through one pool
// across shrinking and growing sizes, with an assumption solve before the
// search on every third job.
func TestValueTableConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := NewPool()
	for i := 0; i < 30; i++ {
		nv := []int{40, 12, 60, 8, 25}[i%5]
		var f *cnf.Formula
		if i%4 == 0 {
			f = randomFormula(rng, nv, nv*4, 3) // units, duplicates, tautologies
		} else {
			f = random3SAT(rng, nv, nv*43/10)
		}
		opts := MiniSATOptions()
		if i%2 == 1 {
			opts = KissatOptions()
		}
		s := pool.Get(f, opts)
		if err := s.valueTableErr(); err != nil {
			t.Fatalf("job %d after reset: %v", i, err)
		}
		if i%3 == 0 {
			var assumptions []cnf.Lit
			for v := 0; v < nv/4; v++ {
				assumptions = append(assumptions, cnf.MkLit(cnf.Var(rng.Intn(nv)), rng.Intn(2) == 0))
			}
			s.SolveWithAssumptions(assumptions)
			if err := s.valueTableErr(); err != nil {
				t.Fatalf("job %d after assumptions: %v", i, err)
			}
		}
		for step := 0; ; step++ {
			st := s.Step()
			if err := s.valueTableErr(); err != nil {
				t.Fatalf("job %d step %d: %v", i, step, err)
			}
			if st != StepContinue {
				break
			}
		}
		pool.Put(s)
	}
}
