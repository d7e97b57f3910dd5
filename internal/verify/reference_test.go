package verify

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"hyqsat/internal/cnf"
)

// This file keeps the original forward RUP checker — one slice per clause,
// id-only watch lists, map-based normalisation and string deletion keys — as
// the oracle the production checker in drat.go is compared against
// (TestCheckUnsatProofMatchesReference, FuzzProofCheck). Verdicts and error
// text must match it exactly, whatever hints a proof carries.

// referenceCheckUnsatProof is the original body of CheckUnsatProof, kept
// verbatim but for decoding the proof's steps first. It ignores hints.
func referenceCheckUnsatProof(f *cnf.Formula, proof Proof) error {
	p := proof.Steps()
	for i, s := range p {
		for _, l := range s.Lits {
			if int(l.Var()) >= f.NumVars {
				return fmt.Errorf("verify: proof step %d mentions variable %d beyond the formula's %d",
					i, l.Var()+1, f.NumVars)
			}
		}
	}
	ck := newRUPChecker(f.NumVars)
	for _, c := range f.Clauses {
		ck.addClause(c)
	}
	if ck.propagateRoot() {
		return nil // the formula propagates to a conflict on its own
	}
	for i, s := range p {
		if s.Del {
			ck.deleteClause(s.Lits)
			continue
		}
		if !ck.checkRUP(s.Lits) {
			return fmt.Errorf("verify: proof step %d is not a RUP consequence: %v", i, clauseString(s.Lits))
		}
		ck.addClause(s.Lits)
		if ck.propagateRoot() {
			return nil // empty clause derived
		}
	}
	return fmt.Errorf("verify: proof does not derive the empty clause (%d steps checked)", len(p))
}

// clauseKey is the canonical identity of a clause for deletion matching:
// sorted, deduplicated literals.
func clauseKey(lits []cnf.Lit) string {
	ds := make([]int, 0, len(lits))
	for _, l := range lits {
		ds = append(ds, int(l))
	}
	sort.Ints(ds)
	var sb strings.Builder
	prev := -1
	for i, d := range ds {
		if i > 0 && d == prev {
			continue
		}
		prev = d
		sb.WriteString(strconv.Itoa(d))
		sb.WriteByte(',')
	}
	return sb.String()
}

type rupClause struct {
	lits  []cnf.Lit
	alive bool
}

// rupChecker is a minimal unit-propagation engine over a growing clause
// database, supporting temporary assumptions (for RUP checks) via trail
// truncation.
type rupChecker struct {
	clauses  []rupClause
	index    map[string][]int // clauseKey → arena ids (live instances)
	watches  [][]int          // lit → clause ids watching lit
	assigns  []cnf.Value
	trail    []cnf.Lit
	rootDone int  // trail entries already propagated at the root level
	conflict bool // permanent root-level conflict (empty clause derived)
}

func newRUPChecker(nvars int) *rupChecker {
	return &rupChecker{
		index:   make(map[string][]int),
		watches: make([][]int, 2*nvars),
		assigns: make([]cnf.Value, nvars),
	}
}

func (ck *rupChecker) value(l cnf.Lit) cnf.Value {
	v := ck.assigns[l.Var()]
	if l.IsNeg() {
		return v.Not()
	}
	return v
}

func (ck *rupChecker) assign(l cnf.Lit) {
	if l.IsNeg() {
		ck.assigns[l.Var()] = cnf.False
	} else {
		ck.assigns[l.Var()] = cnf.True
	}
	ck.trail = append(ck.trail, l)
}

// addClause installs a clause into the database at the root level. Clauses
// that are unit (or falsified) under the current root assignment enqueue
// their consequence (or set the conflict flag) immediately.
func (ck *rupChecker) addClause(lits []cnf.Lit) {
	if ck.conflict {
		return
	}
	// Deduplicate; keep tautologies (they are inert).
	norm := cnf.Clause(lits).Normalized()
	if len(norm) == 0 {
		ck.conflict = true
		return
	}
	if norm.IsTautology() {
		// Never propagates; still register it so deletions match.
		id := len(ck.clauses)
		ck.clauses = append(ck.clauses, rupClause{lits: norm, alive: true})
		k := clauseKey(norm)
		ck.index[k] = append(ck.index[k], id)
		return
	}
	if len(norm) == 1 {
		switch ck.value(norm[0]) {
		case cnf.False:
			ck.conflict = true
		case cnf.Undef:
			ck.assign(norm[0])
		}
		// Register for deletion matching even when already satisfied.
		id := len(ck.clauses)
		ck.clauses = append(ck.clauses, rupClause{lits: norm, alive: true})
		k := clauseKey(norm)
		ck.index[k] = append(ck.index[k], id)
		return
	}
	// Choose two watchable (non-false) literals, moving them to the front.
	w := 0
	for i := 0; i < len(norm) && w < 2; i++ {
		if ck.value(norm[i]) != cnf.False {
			norm[w], norm[i] = norm[i], norm[w]
			w++
		}
	}
	id := len(ck.clauses)
	ck.clauses = append(ck.clauses, rupClause{lits: norm, alive: true})
	k := clauseKey(norm)
	ck.index[k] = append(ck.index[k], id)
	switch w {
	case 0:
		ck.conflict = true
		return
	case 1:
		if ck.value(norm[0]) == cnf.Undef {
			ck.assign(norm[0])
		}
		// Watch the first two anyway; backtracking below root never happens,
		// so the stale watch is harmless (the clause stays satisfied or the
		// conflict flag is already permanent).
	}
	ck.watch(norm[0], id)
	ck.watch(norm[1], id)
}

func (ck *rupChecker) watch(l cnf.Lit, id int) {
	// Index watch lists by the falsifying literal, as the solver does.
	n := l.Not()
	ck.watches[n] = append(ck.watches[n], id)
}

// deleteClause removes one live instance of the clause, if present.
func (ck *rupChecker) deleteClause(lits []cnf.Lit) {
	k := clauseKey(cnf.Clause(lits).Normalized())
	ids := ck.index[k]
	for i := len(ids) - 1; i >= 0; i-- {
		if ck.clauses[ids[i]].alive {
			ck.clauses[ids[i]].alive = false
			ck.index[k] = append(ids[:i:i], ids[i+1:]...)
			return
		}
	}
	// Deleting an unknown clause is tolerated (drat-trim semantics).
}

// propagateRoot propagates all pending root-level assignments. A conflict
// here is permanent: the database derives the empty clause. Returns the
// (possibly updated) conflict flag.
func (ck *rupChecker) propagateRoot() bool {
	if ck.conflict {
		return true
	}
	if ck.propagate(ck.rootDone) {
		ck.conflict = true
	}
	ck.rootDone = len(ck.trail)
	return ck.conflict
}

// propagate runs unit propagation to a fixed point, processing trail entries
// from index `from` onwards. It returns true on conflict and leaves any
// assignments it made on the trail (callers truncate to undo).
func (ck *rupChecker) propagate(from int) bool {
	qhead := from
	for qhead < len(ck.trail) {
		p := ck.trail[qhead] // p became true; inspect clauses watching ¬p
		qhead++
		ws := ck.watches[p]
		kept := ws[:0]
		confl := false
		for i := 0; i < len(ws); i++ {
			id := ws[i]
			cl := &ck.clauses[id]
			if !cl.alive {
				continue
			}
			if confl {
				kept = append(kept, id)
				continue
			}
			lits := cl.lits
			falseLit := p.Not()
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			if ck.value(lits[0]) == cnf.True {
				kept = append(kept, id)
				continue
			}
			moved := false
			for k := 2; k < len(lits); k++ {
				if ck.value(lits[k]) != cnf.False {
					lits[1], lits[k] = lits[k], lits[1]
					ck.watch(lits[1], id)
					moved = true
					break
				}
			}
			if moved {
				continue
			}
			kept = append(kept, id)
			switch ck.value(lits[0]) {
			case cnf.False:
				confl = true
			case cnf.Undef:
				ck.assign(lits[0])
			}
		}
		ck.watches[p] = kept
		if confl {
			return true
		}
	}
	return false
}

// checkRUP verifies that the clause is a RUP consequence of the current
// database: asserting the negation of each literal and propagating must
// yield a conflict. The trail is restored afterwards.
func (ck *rupChecker) checkRUP(lits []cnf.Lit) bool {
	if ck.conflict {
		return true // everything follows from a refuted database
	}
	mark := len(ck.trail)
	conflictFound := false
	for _, l := range lits {
		switch ck.value(l) {
		case cnf.True:
			// ¬l contradicts the current root assignment immediately.
			conflictFound = true
		case cnf.Undef:
			ck.assign(l.Not())
		}
		if conflictFound {
			break
		}
	}
	if !conflictFound {
		conflictFound = ck.propagate(mark)
	}
	// Undo the assumptions and everything they propagated.
	for i := len(ck.trail) - 1; i >= mark; i-- {
		ck.assigns[ck.trail[i].Var()] = cnf.Undef
	}
	ck.trail = ck.trail[:mark]
	return conflictFound
}
