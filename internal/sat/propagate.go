package sat

import "hyqsat/internal/cnf"

// propagate performs unit propagation with two watched literals until a fixed
// point or a conflict. It returns the conflicting clause, or crefUndef.
//
// The loop is the hottest path in the system and is written against the flat
// clause arena: inspecting a clause is a slice index into one contiguous
// block (no per-clause pointer chase), and binary clauses never reach the
// arena at all — their watcher carries the implied literal directly.
// Deleted clauses cannot appear here: reduceDB is immediately followed by
// garbageCollect, which purges dead watchers from every list.
func (s *Solver) propagate() cref {
	conflict := crefUndef
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead] // p became true; inspect clauses watching ¬p
		s.qhead++
		ws := s.watches[p]
		kept := ws[:0]
		var i int
	Clauses:
		for i = 0; i < len(ws); i++ {
			w := ws[i]
			if isBinRef(w.c) {
				// Binary fast path: the blocker is the only other literal,
				// so it is the implication (or the conflict) directly.
				kept = append(kept, w)
				switch s.value(w.blocker) {
				case cnf.True:
					continue
				case cnf.False:
					s.stats.Propagations++
					conflict = binRef(w.c)
					s.qhead = len(s.trail)
					i++
					for ; i < len(ws); i++ {
						kept = append(kept, ws[i])
					}
					break Clauses
				}
				s.stats.Propagations++
				if !s.enqueue(w.blocker, binRef(w.c)) {
					panic("sat: enqueue failed on binary implication")
				}
				continue
			}
			if s.value(w.blocker) == cnf.True {
				kept = append(kept, w)
				continue
			}
			c := w.c
			s.stats.Propagations++
			lits := s.ca.lits(c)
			// Two ifs, not one &&: the && form lays this loop out ~9%
			// slower in BenchmarkPropagate.
			if s.propVisits != nil {
				if !s.ca.learnt(c) {
					s.propVisits[s.ca.orig(c)]++
				}
			}
			// Normalise so the false literal (¬p) is lits[1].
			falseLit := p.Not()
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == cnf.True {
				kept = append(kept, watcher{c, first})
				continue
			}
			// Find a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != cnf.False {
					lits[1], lits[k] = lits[k], lits[1]
					s.watch(lits[1], watcher{c, first})
					continue Clauses
				}
			}
			// No replacement: clause is unit or conflicting.
			kept = append(kept, watcher{c, first})
			if s.value(first) == cnf.False {
				conflict = c
				s.qhead = len(s.trail)
				// Copy the rest of the watch list and stop.
				i++
				for ; i < len(ws); i++ {
					kept = append(kept, ws[i])
				}
				break
			}
			if !s.enqueue(first, c) {
				// enqueue cannot fail here: first was checked not-False.
				panic("sat: enqueue failed on unit literal")
			}
		}
		s.watches[p] = kept
	}
	return conflict
}
