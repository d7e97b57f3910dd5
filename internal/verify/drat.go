package verify

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

var (
	_ sat.ProofWriter = (*TextWriter)(nil)
	_ sat.ProofWriter = tee{}
)

// tee fans proof events out to several writers.
type tee struct{ ws []sat.ProofWriter }

func (t tee) ProofAdd(lits []cnf.Lit, hints []int32) {
	for _, w := range t.ws {
		w.ProofAdd(lits, hints)
	}
}

func (t tee) ProofDelete(lits []cnf.Lit) {
	for _, w := range t.ws {
		w.ProofDelete(lits)
	}
}

// Tee returns a proof writer duplicating every event to all of ws (nils are
// skipped). With zero live writers it returns nil, which disables logging.
func Tee(ws ...sat.ProofWriter) sat.ProofWriter {
	live := make([]sat.ProofWriter, 0, len(ws))
	for _, w := range ws {
		if w != nil {
			live = append(live, w)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee{live}
}

// TextWriter is a sat.ProofWriter that streams the trace as DRAT text
// ("-1 2 0" additions, "d -1 2 0" deletions); hints are not written, so the
// text is plain DRAT. Errors are sticky and reported by Flush, matching the
// write-mostly shape of proof logging.
type TextWriter struct {
	bw  *bufio.Writer
	err error
}

// NewTextWriter returns a DRAT text serialiser over w.
func NewTextWriter(w io.Writer) *TextWriter {
	return &TextWriter{bw: bufio.NewWriter(w)}
}

func (t *TextWriter) writeClause(prefix string, lits []cnf.Lit) {
	if t.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(prefix)
	for _, l := range lits {
		sb.WriteString(strconv.Itoa(l.Dimacs()))
		sb.WriteByte(' ')
	}
	sb.WriteString("0\n")
	_, t.err = t.bw.WriteString(sb.String())
}

// ProofAdd implements sat.ProofWriter. The hints are dropped.
func (t *TextWriter) ProofAdd(lits []cnf.Lit, _ []int32) { t.writeClause("", lits) }

// ProofDelete implements sat.ProofWriter.
func (t *TextWriter) ProofDelete(lits []cnf.Lit) { t.writeClause("d ", lits) }

// Flush drains the buffer and returns the first error encountered.
func (t *TextWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// WriteDRAT serialises a recorded proof as DRAT text, without its hints.
func WriteDRAT(w io.Writer, p Proof) error {
	tw := NewTextWriter(w)
	r := p.reader()
	for r.next() {
		if r.del {
			tw.ProofDelete(r.lits)
		} else {
			tw.ProofAdd(r.lits, nil)
		}
	}
	return tw.Flush()
}

// maxProofVar bounds the variables a textual proof may mention, preventing
// absurd allocations on corrupt input.
const maxProofVar = 1 << 24

// ParseDRAT reads a DRAT text proof: one clause per line, "d " prefix for
// deletions, literals in DIMACS encoding, each clause terminated by 0.
// Comment lines starting with "c" are ignored. The proof has no hints.
func ParseDRAT(r io.Reader) (Proof, error) {
	var p proofLog
	var lits []cnf.Lit
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		del := false
		lits = lits[:0]
		if line == "d" || strings.HasPrefix(line, "d ") {
			del = true
			line = strings.TrimSpace(strings.TrimPrefix(line, "d"))
		}
		terminated := false
		for _, tok := range strings.Fields(line) {
			if terminated {
				return Proof{}, fmt.Errorf("verify: drat line %d: literals after terminating 0", lineNo)
			}
			d, err := strconv.Atoi(tok)
			if err != nil {
				return Proof{}, fmt.Errorf("verify: drat line %d: bad literal %q", lineNo, tok)
			}
			if d == 0 {
				if tok != "0" {
					return Proof{}, fmt.Errorf("verify: drat line %d: bad literal %q", lineNo, tok)
				}
				terminated = true
				continue
			}
			if d > maxProofVar || d < -maxProofVar {
				return Proof{}, fmt.Errorf("verify: drat line %d: literal %d out of range", lineNo, d)
			}
			lits = append(lits, cnf.LitFromDimacs(d))
		}
		if !terminated {
			return Proof{}, fmt.Errorf("verify: drat line %d: clause not terminated by 0", lineNo)
		}
		p.add(del, lits, nil)
	}
	if err := sc.Err(); err != nil {
		return Proof{}, fmt.Errorf("verify: drat read: %w", err)
	}
	return p.proof(), nil
}

// --- Proof checking ---

// CheckUnsatProof verifies that the proof establishes the unsatisfiability
// of f: every addition step must be a reverse-unit-propagation (RUP)
// consequence of the formula plus the previously added clauses, and the
// trace must derive the empty clause (either as an explicit final step or
// because unit propagation over the accumulated clauses already conflicts).
// Deletion steps remove clauses from the active set; deleting an absent
// clause is ignored, as in drat-trim.
//
// The checker is fully independent of the solver: it maintains its own
// clause database and watched-literal propagation. Proof clauses may only
// mention variables of f — a constraint every RUP proof of f can satisfy —
// which keeps the checker's memory bounded by the premise.
//
// A hinted proof (see sat.ProofWriter for the ids and the hint order) is
// first checked on one clause database with no watch lists: each addition
// is verified by walking its hints, one linear pass over the hinted clauses
// with no propagation search, and an empty clause verified that way accepts
// the proof. A walk that fails — a hint naming an unknown, deleted or later
// id, or a hinted clause that is neither unit nor falsified — ends this
// pass, and the proof is checked again from the start on a watched-literal
// database, with the additions before the failed one trusted and each later
// one trying its hints before a full RUP check. A proof without hints (DRAT
// text) is checked that way throughout. Hints therefore cost time when wrong
// but never change a verdict. The check runs on the calling goroutine, and
// the caller's proof is only read.
//
// A nil error means f is unsatisfiable, certified without trusting the
// solver that produced the proof.
func CheckUnsatProof(f *cnf.Formula, p Proof) error {
	_, err := checkUnsatProof(f, p)
	return err
}

// checkUnsatProof is CheckUnsatProof that also returns how many additions
// fell back from their hints to a RUP check (for a proof without hints,
// every addition that was checked).
func checkUnsatProof(f *cnf.Formula, p Proof) (fallbacks int, err error) {
	if int64(p.maxLit) >= 2*int64(f.NumVars) {
		r := p.reader()
		for i := 0; r.next(); i++ {
			for _, l := range r.lits {
				if l < 0 || int(l.Var()) >= f.NumVars {
					return 0, fmt.Errorf("verify: proof step %d mentions variable %d beyond the formula's %d",
						i, l.Var()+1, f.NumVars)
				}
			}
		}
	}
	adds, addLits := p.adds, p.addLits
	trusted := 0 // additions before this step are known RUP consequences
	if p.hinted {
		var refuted bool
		if trusted, refuted = newChecker(f, adds, addLits).walkProof(f, p); refuted {
			return 0, nil
		}
	}
	ck := newChecker(f, adds, addLits)
	ck.watches = newWatches(f)
	fail, refuted, fallbacks := ck.run(f, p, trusted)
	if fail >= 0 {
		return fallbacks, fmt.Errorf("verify: proof step %d is not a RUP consequence: %v", fail, clauseString(p.step(fail).Lits))
	}
	if refuted {
		return fallbacks, nil
	}
	return fallbacks, fmt.Errorf("verify: proof does not derive the empty clause (%d steps checked)", p.Len())
}

func clauseString(lits []cnf.Lit) string {
	if len(lits) == 0 {
		return "⊥"
	}
	parts := make([]string, len(lits))
	for i, l := range lits {
		parts[i] = strconv.Itoa(l.Dimacs())
	}
	return strings.Join(parts, " ")
}

// Clause records in the checker's arena: a two-word header, then the
// literals. The header words are stored as cnf.Lit values.
const (
	hdrSize = 0 // literal count; -1 once the clause is deleted
	hdrNext = 1 // arena offset of the next clause in the same hash bucket, or -1
	hdrLen  = 2
)

// watch is one watched-literal entry: the clause's arena offset and another
// of its literals. While the blocker is true the clause cannot propagate, and
// propagation skips it without touching the arena.
type watch struct {
	cref    int32
	blocker cnf.Lit
}

// checker is a unit-propagation engine over a growing clause database,
// supporting temporary assumptions (for RUP checks and hint walks) via trail
// truncation. The clause database is one flat arena; deletions find their
// clause through a hash table of normalised literal sets whose chains run
// through the clause headers, and hints through ids, which maps a clause id
// to its arena offset. Watch lists are allocated only when a check needs
// them: a hint walk uses none.
type checker struct {
	arena    []cnf.Lit
	buckets  []int32 // hash of normalised literals → first clause offset, or -1
	mask     uint32
	ids      []int32   // clause id → arena offset
	watches  [][]watch // lit → watches of clauses that lit falsifies
	vals     []int8    // lit → 1 true, -1 false, 0 unassigned
	trail    []cnf.Lit
	marks    []uint32 // lit → stamp, for normalising and comparing literal sets
	stamp    uint32
	scratch  []cnf.Lit // normalisation buffer
	rootDone int       // trail entries already propagated at the root level
	conflict bool      // permanent root-level conflict (empty clause derived)
}

// newChecker sizes a checker for f plus a proof with adds additions holding
// addLits literals in total, so neither the arena, the hash table nor the id
// table grows.
func newChecker(f *cnf.Formula, adds, addLits int) *checker {
	size := addLits + hdrLen*adds
	for _, c := range f.Clauses {
		size += hdrLen + len(c)
	}
	nb := 1
	for nb < 2*(len(f.Clauses)+adds) {
		nb <<= 1
	}
	buckets := make([]int32, nb)
	for i := range buckets {
		buckets[i] = -1
	}
	nlits := 2 * f.NumVars
	return &checker{
		arena:   make([]cnf.Lit, 0, size),
		buckets: buckets,
		mask:    uint32(nb - 1),
		ids:     make([]int32, len(f.Clauses)+adds+1),
		vals:    make([]int8, nlits),
		trail:   make([]cnf.Lit, 0, f.NumVars),
		marks:   make([]uint32, nlits),
	}
}

// newWatches returns empty watch lists for f's literals, every list's
// initial capacity carved from one block: room for the premise's two
// watches per clause, twice over.
func newWatches(f *cnf.Formula) [][]watch {
	nlits := 2 * f.NumVars
	watches := make([][]watch, nlits)
	if nlits > 0 {
		per := 4*len(f.Clauses)/nlits + 4
		block := make([]watch, nlits*per)
		for l := range watches {
			watches[l] = block[l*per : l*per : (l+1)*per]
		}
	}
	return watches
}

// walkProof loads f and checks p by its hints alone, on a checker without
// watches: each addition must be derived by walking its hints, and is then
// stored, with no root propagation. It returns refuted once an empty clause
// is derived, and otherwise the step at which it stopped: the first addition
// its hints do not derive, or p.Len() when none derived the empty clause.
func (ck *checker) walkProof(f *cnf.Formula, p Proof) (stop int, refuted bool) {
	for i, c := range f.Clauses {
		ck.ids[i+1], _ = ck.store(c)
	}
	id := int32(len(f.Clauses))
	r := p.reader()
	for i := 0; r.next(); i++ {
		if r.del {
			ck.delete(r.lits)
			continue
		}
		id++
		if !ck.walk(r.lits, r.hints, id) {
			return i, false
		}
		if len(r.lits) == 0 {
			return i, true
		}
		ck.ids[id], _ = ck.store(r.lits)
	}
	return p.Len(), false
}

// run loads f, then replays p: every deletion, and every addition followed
// by root propagation. From step trusted on, it checks each addition by its
// hints or else by RUP, and returns the step of the first that fails (or
// -1), whether the database derived the empty clause, and how many additions
// fell back to RUP.
func (ck *checker) run(f *cnf.Formula, p Proof, trusted int) (fail int, refuted bool, fallbacks int) {
	for i, c := range f.Clauses {
		ck.ids[i+1] = ck.add(c)
	}
	if ck.propagateRoot() {
		return -1, true, 0 // the formula propagates to a conflict on its own
	}
	lemma := int32(len(f.Clauses))
	r := p.reader()
	for i := 0; r.next(); i++ {
		if r.del {
			ck.delete(r.lits)
			continue
		}
		lemma++
		if i >= trusted && !ck.walk(r.lits, r.hints, lemma) {
			fallbacks++
			if !ck.checkRUP(r.lits) {
				return i, false, fallbacks
			}
		}
		ck.ids[lemma] = ck.add(r.lits)
		if ck.propagateRoot() {
			return -1, true, fallbacks // empty clause derived
		}
	}
	return -1, false, fallbacks
}

// normalize copies lits into the scratch buffer without duplicate literals,
// leaving every literal of the result marked with the current stamp. It
// also returns an order-independent hash of the result and whether it is a
// tautology.
func (ck *checker) normalize(lits []cnf.Lit) (norm []cnf.Lit, hash uint32, taut bool) {
	ck.stamp++
	n := ck.scratch[:0]
	for _, l := range lits {
		if ck.marks[l] == ck.stamp {
			continue
		}
		taut = taut || ck.marks[l^1] == ck.stamp
		ck.marks[l] = ck.stamp
		n = append(n, l)
		hash += (uint32(l) + 1) * 0x9e3779b1
	}
	ck.scratch = n
	return n, hash ^ hash>>15, taut
}

func (ck *checker) assign(l cnf.Lit) {
	ck.vals[l] = 1
	ck.vals[l^1] = -1
	ck.trail = append(ck.trail, l)
}

// store appends the normalised clause to the arena and its hash bucket,
// returning its offset and whether it is a tautology. Every clause is
// stored, tautologies, units and the empty clause included, so that a
// deletion or a hint can find it.
func (ck *checker) store(lits []cnf.Lit) (c int32, taut bool) {
	norm, hash, taut := ck.normalize(lits)
	c = int32(len(ck.arena))
	b := hash & ck.mask
	ck.arena = append(ck.arena, cnf.Lit(len(norm)), cnf.Lit(ck.buckets[b]))
	ck.arena = append(ck.arena, norm...)
	ck.buckets[b] = c
	return c, taut
}

// add installs a clause into the database at the root level and returns its
// offset, or -1 once the database has derived the empty clause. Clauses that
// are unit (or falsified) under the current root assignment enqueue their
// consequence (or set the conflict flag) immediately.
func (ck *checker) add(lits []cnf.Lit) int32 {
	if ck.conflict {
		return -1
	}
	c, taut := ck.store(lits)
	norm := ck.arena[int(c)+hdrLen:]
	if len(norm) == 0 {
		ck.conflict = true
		return c
	}
	// Choose up to two non-false literals, moving them to the front.
	w := 0
	for i := 0; !taut && i < len(norm) && w < 2; i++ {
		if ck.vals[norm[i]] != -1 {
			norm[w], norm[i] = norm[i], norm[w]
			w++
		}
	}
	switch {
	case taut:
		return c // never propagates
	case w == 0:
		ck.conflict = true
		return c
	case w == 1 && ck.vals[norm[0]] == 0:
		ck.assign(norm[0])
	}
	if len(norm) > 1 {
		// With w == 1 the second watch sits on a root-false literal; the
		// clause is satisfied at the root by its first, so the stale watch
		// is harmless.
		ck.watches[norm[0]^1] = append(ck.watches[norm[0]^1], watch{c, norm[1]})
		ck.watches[norm[1]^1] = append(ck.watches[norm[1]^1], watch{c, norm[0]})
	}
	return c
}

// delete removes one live instance of the clause, if present.
func (ck *checker) delete(lits []cnf.Lit) {
	norm, hash, _ := ck.normalize(lits)
	b := hash & ck.mask
	prev := int32(-1)
	for c := ck.buckets[b]; c >= 0; c = int32(ck.arena[c+hdrNext]) {
		if int(ck.arena[c+hdrSize]) == len(norm) && ck.marked(c, len(norm)) {
			next := ck.arena[c+hdrNext]
			if prev < 0 {
				ck.buckets[b] = int32(next)
			} else {
				ck.arena[prev+hdrNext] = next
			}
			ck.arena[c+hdrSize] = -1
			return
		}
		prev = c
	}
	// Deleting an unknown clause is tolerated (drat-trim semantics).
}

// marked reports whether every literal of the size-literal clause at c
// carries the current stamp.
func (ck *checker) marked(c int32, size int) bool {
	for _, l := range ck.arena[int(c)+hdrLen : int(c)+hdrLen+size] {
		if ck.marks[l] != ck.stamp {
			return false
		}
	}
	return true
}

// propagateRoot propagates all pending root-level assignments. A conflict
// here is permanent: the database derives the empty clause. Returns the
// (possibly updated) conflict flag.
func (ck *checker) propagateRoot() bool {
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
// from index from onwards. It returns true on conflict and leaves any
// assignments it made on the trail (callers truncate to undo).
func (ck *checker) propagate(from int) bool {
	vals, arena := ck.vals, ck.arena
	for qhead := from; qhead < len(ck.trail); qhead++ {
		p := ck.trail[qhead] // p became true; visit the clauses it falsifies a watch of
		falseLit := p ^ 1
		ws := ck.watches[p]
		j := 0
	next:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if vals[w.blocker] == 1 {
				ws[j] = w
				j++
				continue
			}
			size := int(arena[w.cref+hdrSize])
			if size < 0 {
				continue // deleted: drop the watch
			}
			lits := arena[int(w.cref)+hdrLen : int(w.cref)+hdrLen+size]
			if lits[0] == falseLit {
				lits[0], lits[1] = lits[1], falseLit
			}
			first := lits[0]
			if first != w.blocker && vals[first] == 1 {
				ws[j] = watch{w.cref, first}
				j++
				continue
			}
			for k := 2; k < size; k++ {
				if vals[lits[k]] != -1 {
					lits[1], lits[k] = lits[k], falseLit
					ck.watches[lits[1]^1] = append(ck.watches[lits[1]^1], watch{w.cref, first})
					continue next
				}
			}
			ws[j] = watch{w.cref, first}
			j++
			if vals[first] == -1 {
				j += copy(ws[j:], ws[i+1:])
				ck.watches[p] = ws[:j]
				return true
			}
			ck.assign(first)
		}
		ck.watches[p] = ws[:j]
	}
	return false
}

// checkRUP verifies that the clause is a RUP consequence of the current
// database: asserting the negation of each literal and propagating must
// yield a conflict. The trail is restored afterwards.
func (ck *checker) checkRUP(lits []cnf.Lit) bool {
	mark := len(ck.trail)
	conflict := false
	for _, l := range lits {
		if v := ck.vals[l]; v == 1 {
			conflict = true // ¬l contradicts the current assignment
			break
		} else if v == 0 {
			ck.assign(l ^ 1)
		}
	}
	if !conflict {
		conflict = ck.propagate(mark)
	}
	ck.undo(mark)
	return conflict
}

// walk reports whether hints derive lits, the addition with the given id,
// by unit propagation along them alone: with the negation of lits assigned
// on top of the root assignment, each hinted clause in turn must be unit,
// and its literal is assigned, until one is falsified. A hint naming no live
// clause of a lower id, or a hinted clause that is satisfied or has two
// unassigned literals, fails the walk. The trail is restored afterwards.
func (ck *checker) walk(lits []cnf.Lit, hints []int32, id int32) bool {
	if len(hints) == 0 {
		return false
	}
	mark := len(ck.trail)
	ok := ck.walkHints(lits, hints, id)
	ck.undo(mark)
	return ok
}

func (ck *checker) walkHints(lits []cnf.Lit, hints []int32, id int32) bool {
	for _, l := range lits {
		if v := ck.vals[l]; v == 1 {
			return true // ¬l contradicts the current assignment
		} else if v == 0 {
			ck.assign(l ^ 1)
		}
	}
	vals, arena, ids := ck.vals, ck.arena, ck.ids
	for _, h := range hints {
		if h <= 0 || h >= id || ids[h] < 0 {
			return false
		}
		c := int(ids[h])
		size := int(arena[c+hdrSize])
		if size < 0 {
			return false // deleted
		}
		// Most literals of a hinted clause are false: test for that first.
		unit, free := cnf.NoLit, 0
		for _, l := range arena[c+hdrLen : c+hdrLen+size] {
			if v := vals[l]; v >= 0 {
				if v > 0 {
					return false // satisfied
				}
				unit = l
				free++
			}
		}
		switch free {
		case 0:
			return true // falsified: the conflict
		case 1:
			ck.assign(unit)
		default:
			return false
		}
	}
	return false
}

// undo unassigns the trail entries from mark on.
func (ck *checker) undo(mark int) {
	for _, l := range ck.trail[mark:] {
		ck.vals[l] = 0
		ck.vals[l^1] = 0
	}
	ck.trail = ck.trail[:mark]
}
