package sat

import (
	"math"

	"hyqsat/internal/cnf"
)

// cref indexes the solver's flat clause arena: it is the word offset of a
// clause record inside clauseArena.data. Watchers additionally encode binary
// clauses below crefUndef (see binRef) so the propagation fast path can
// recognise them with a single comparison and never touch the arena.
type cref int32

const crefUndef cref = -1

// binRef maps a cref into the binary-clause watcher encoding and back: it is
// its own inverse (binRef(binRef(c)) == c) and maps every valid arena offset
// (>= 0) strictly below crefUndef, so the three cases — real cref, undef,
// binary — occupy disjoint ranges.
func binRef(c cref) cref { return -2 - c }

// isBinRef reports whether a watcher's cref field carries the binary-clause
// encoding.
func isBinRef(c cref) bool { return c < crefUndef }

// Arena record layout. Every slot is one 32-bit word of the backing
// []cnf.Lit, so literal access is a direct slice index with zero pointer
// indirection (MiniSat/CaDiCaL style):
//
//	data[c+0]  header: size<<hdrSizeShift | flags
//	data[c+1]  activity (float32 bits); forwarding cref once hdrReloc is set
//	data[c+2]  LBD
//	data[c+3]  orig: index of the originating input clause; for a learnt
//	           clause, the id it was logged under (see ProofWriter)
//	data[c+4 .. c+4+size)  the literals
const (
	hdrLearnt    = 1 << 0 // clause was learnt (participates in activity/reduce)
	hdrDeleted   = 1 << 1 // clause was removed by reduceDB; space reclaimed by GC
	hdrReloc     = 1 << 2 // record was moved by GC; data[c+1] holds the new cref
	hdrSizeShift = 3

	clauseHeaderWords = 4
)

// clauseArena is the flat clause store: one contiguous word slice holding
// every clause record, problem clauses and learnt clauses alike.
type clauseArena struct {
	data   []cnf.Lit
	wasted int // words held by deleted records, reclaimed by garbageCollect
}

// alloc appends a new clause record and returns its cref. The literals are
// copied into the arena.
func (a *clauseArena) alloc(lits []cnf.Lit, learnt bool, orig int) cref {
	c := cref(len(a.data))
	hdr := cnf.Lit(len(lits) << hdrSizeShift)
	if learnt {
		hdr |= hdrLearnt
	}
	a.data = append(a.data, hdr, 0, 0, cnf.Lit(orig))
	a.data = append(a.data, lits...)
	return c
}

func (a *clauseArena) size(c cref) int { return int(a.data[c]) >> hdrSizeShift }

// lits returns the literal slice of clause c, viewing arena memory directly.
func (a *clauseArena) lits(c cref) []cnf.Lit {
	off := int(c) + clauseHeaderWords
	return a.data[off : off+int(a.data[c])>>hdrSizeShift]
}

func (a *clauseArena) learnt(c cref) bool  { return a.data[c]&hdrLearnt != 0 }
func (a *clauseArena) deleted(c cref) bool { return a.data[c]&hdrDeleted != 0 }

// delete tombstones clause c; the words stay wasted until the next GC.
func (a *clauseArena) delete(c cref) {
	a.data[c] |= hdrDeleted
	a.wasted += clauseHeaderWords + a.size(c)
}

func (a *clauseArena) act(c cref) float64 {
	return float64(math.Float32frombits(uint32(a.data[c+1])))
}

func (a *clauseArena) setAct(c cref, v float64) {
	a.data[c+1] = cnf.Lit(math.Float32bits(float32(v)))
}

func (a *clauseArena) lbd(c cref) int32       { return int32(a.data[c+2]) }
func (a *clauseArena) setLBD(c cref, v int32) { a.data[c+2] = cnf.Lit(v) }
func (a *clauseArena) orig(c cref) int        { return int(a.data[c+3]) }

// relocate moves clause c into arena to (once — later calls return the
// forwarding cref stored in the old record) and returns its new cref.
// Deleted clauses must not be relocated.
func (a *clauseArena) relocate(c cref, to *clauseArena) cref {
	if a.data[c]&hdrReloc != 0 {
		return cref(a.data[c+1])
	}
	n := to.alloc(a.lits(c), a.learnt(c), a.orig(c))
	to.data[n+1] = a.data[c+1] // activity bits
	to.data[n+2] = a.data[c+2] // LBD
	a.data[c] |= hdrReloc
	a.data[c+1] = cnf.Lit(n)
	return n
}
