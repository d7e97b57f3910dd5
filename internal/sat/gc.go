package sat

import "hyqsat/internal/cnf"

// garbageCollect compacts the clause arena: every live clause is copied into
// a fresh arena (problem clauses first, then live learnts, preserving order)
// and every cref in the system — watch lists, reason[], the problem and
// learnt lists — is relocated through the forwarding pointers the copy leaves
// behind. Watchers of deleted clauses and deleted learnt-list entries are
// dropped in the same pass, so after a collection no dead cref survives
// anywhere and the wasted words are reclaimed.
//
// The old arena's backing array is kept as a spare and reused by the next
// collection (double-buffering), so steady-state GC allocates only when the
// live set outgrows the previous high-water mark.
func (s *Solver) garbageCollect() {
	to := clauseArena{data: s.gcBuf[:0]}
	if need := len(s.ca.data) - s.ca.wasted; cap(to.data) < need {
		to.data = make([]cnf.Lit, 0, need)
	}

	for i, c := range s.problem {
		s.problem[i] = s.ca.relocate(c, &to)
	}
	live := s.learnts[:0]
	for _, c := range s.learnts {
		if s.ca.deleted(c) {
			continue
		}
		live = append(live, s.ca.relocate(c, &to))
	}
	s.learnts = live

	// Reasons of current assignments are members of the lists above, so
	// relocation just follows their forwarding pointers.
	for _, l := range s.trail {
		if r := s.reason[l.Var()]; r != crefUndef {
			s.reason[l.Var()] = s.ca.relocate(r, &to)
		}
	}

	for li := range s.watches {
		ws := s.watches[li]
		kept := ws[:0]
		for _, w := range ws {
			c, bin := w.c, false
			if isBinRef(c) {
				c, bin = binRef(c), true
			}
			if s.ca.deleted(c) {
				continue
			}
			nc := s.ca.relocate(c, &to)
			if bin {
				nc = binRef(nc)
			}
			kept = append(kept, watcher{nc, w.blocker})
		}
		s.watches[li] = kept
	}

	s.gcBuf = s.ca.data[:0]
	s.ca = to
	s.stats.ArenaGCs++
}

// ArenaStats reports the clause arena's current footprint: live words in use,
// words tombstoned awaiting collection, and the number of collections run.
// Intended for tests and telemetry.
func (s *Solver) ArenaStats() (words, wasted int, gcs int64) {
	return len(s.ca.data), s.ca.wasted, s.stats.ArenaGCs
}
