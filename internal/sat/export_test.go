package sat

import (
	"fmt"

	"hyqsat/internal/cnf"
)

// valueTableErr checks the literal-indexed value table against the trail
// and VarValue: the two entries of every variable are complements or both
// Undef, a variable is on the trail exactly when it is assigned (once, with
// its trail literal true), and VarValue reads the positive literal's entry.
// It returns the first inconsistency, or nil.
func (s *Solver) valueTableErr() error {
	n := s.formula.NumVars
	if len(s.vals) != 2*n {
		return fmt.Errorf("value table has %d entries for %d variables", len(s.vals), n)
	}
	onTrail := make([]int, n)
	for i, l := range s.trail {
		onTrail[l.Var()]++
		if s.vals[l] != cnf.True {
			return fmt.Errorf("trail[%d] = %v reads %v, want true", i, l, s.vals[l])
		}
	}
	for v := cnf.Var(0); int(v) < n; v++ {
		pos, neg := s.vals[cnf.MkLit(v, false)], s.vals[cnf.MkLit(v, true)]
		if neg != pos.Not() {
			return fmt.Errorf("var %d: entries %v and %v are not complements", v, pos, neg)
		}
		if assigned := pos != cnf.Undef; assigned != (onTrail[v] == 1) || onTrail[v] > 1 {
			return fmt.Errorf("var %d: assigned=%v but on the trail %d times", v, assigned, onTrail[v])
		}
		if got := s.VarValue(v); got != pos {
			return fmt.Errorf("var %d: VarValue %v, table %v", v, got, pos)
		}
	}
	return nil
}
