package verify

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

// Step is one line of a DRAT proof: a clause addition (the clause must be a
// RUP consequence of everything before it) or a clause deletion.
type Step struct {
	Del  bool
	Lits []cnf.Lit
}

// Proof is an ordered DRAT proof trace. An addition step with no literals is
// the empty clause, which concludes an unsatisfiability proof.
type Proof []Step

// --- Capturing proofs from the solver ---

var (
	_ sat.ProofWriter = (*Recorder)(nil)
	_ sat.ProofWriter = (*TextWriter)(nil)
	_ sat.ProofWriter = tee{}
)

// Recorder is an in-memory sat.ProofWriter. It copies every clause it
// receives, so the recorded proof stays valid after the solver moves on.
// A Recorder is not safe for concurrent use; attach one recorder per solver.
type Recorder struct {
	steps Proof
}

// NewRecorder returns an empty proof recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// ProofAdd implements sat.ProofWriter.
func (r *Recorder) ProofAdd(lits []cnf.Lit) {
	r.steps = append(r.steps, Step{Lits: append([]cnf.Lit(nil), lits...)})
}

// ProofDelete implements sat.ProofWriter.
func (r *Recorder) ProofDelete(lits []cnf.Lit) {
	r.steps = append(r.steps, Step{Del: true, Lits: append([]cnf.Lit(nil), lits...)})
}

// Proof returns the recorded trace. The caller must not mutate it while the
// solver is still running.
func (r *Recorder) Proof() Proof { return r.steps }

// Len returns the number of recorded steps.
func (r *Recorder) Len() int { return len(r.steps) }

// tee fans proof events out to several writers.
type tee struct{ ws []sat.ProofWriter }

func (t tee) ProofAdd(lits []cnf.Lit) {
	for _, w := range t.ws {
		w.ProofAdd(lits)
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
// ("-1 2 0" additions, "d -1 2 0" deletions). Errors are sticky and
// reported by Flush, matching the write-mostly shape of proof logging.
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

// ProofAdd implements sat.ProofWriter.
func (t *TextWriter) ProofAdd(lits []cnf.Lit) { t.writeClause("", lits) }

// ProofDelete implements sat.ProofWriter.
func (t *TextWriter) ProofDelete(lits []cnf.Lit) { t.writeClause("d ", lits) }

// Flush drains the buffer and returns the first error encountered.
func (t *TextWriter) Flush() error {
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// WriteDRAT serialises a recorded proof as DRAT text.
func WriteDRAT(w io.Writer, p Proof) error {
	tw := NewTextWriter(w)
	for _, s := range p {
		if s.Del {
			tw.ProofDelete(s.Lits)
		} else {
			tw.ProofAdd(s.Lits)
		}
	}
	return tw.Flush()
}

// maxProofVar bounds the variables a textual proof may mention, preventing
// absurd allocations on corrupt input.
const maxProofVar = 1 << 24

// ParseDRAT reads a DRAT text proof: one clause per line, "d " prefix for
// deletions, literals in DIMACS encoding, each clause terminated by 0.
// Comment lines starting with "c" are ignored.
func ParseDRAT(r io.Reader) (Proof, error) {
	var p Proof
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		step := Step{}
		if line == "d" || strings.HasPrefix(line, "d ") {
			step.Del = true
			line = strings.TrimSpace(strings.TrimPrefix(line, "d"))
		}
		terminated := false
		for _, tok := range strings.Fields(line) {
			if terminated {
				return nil, fmt.Errorf("verify: drat line %d: literals after terminating 0", lineNo)
			}
			d, err := strconv.Atoi(tok)
			if err != nil {
				return nil, fmt.Errorf("verify: drat line %d: bad literal %q", lineNo, tok)
			}
			if d == 0 {
				if tok != "0" {
					return nil, fmt.Errorf("verify: drat line %d: bad literal %q", lineNo, tok)
				}
				terminated = true
				continue
			}
			if d > maxProofVar || d < -maxProofVar {
				return nil, fmt.Errorf("verify: drat line %d: literal %d out of range", lineNo, d)
			}
			step.Lits = append(step.Lits, cnf.LitFromDimacs(d))
		}
		if !terminated {
			return nil, fmt.Errorf("verify: drat line %d: clause not terminated by 0", lineNo)
		}
		p = append(p, step)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("verify: drat read: %w", err)
	}
	return p, nil
}

// --- RUP proof checking ---

// proofChunk is how many consecutive additions one worker RUP-checks before
// the next chunk falls to the next worker.
const proofChunk = 256

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
// Long proofs are checked by up to GOMAXPROCS workers. Each replays every
// step into its own database but RUP-checks only its share of the additions
// (chunks of proofChunk, dealt round robin), so each lemma is checked against
// the database a sequential replay would hold at that step. The verdict and
// the error — the lowest failing step — are those of a sequential check. The
// caller's proof is only read.
//
// A nil error means f is unsatisfiable, certified without trusting the
// solver that produced the proof.
func CheckUnsatProof(f *cnf.Formula, p Proof) error {
	return checkUnsatProof(f, p, runtime.GOMAXPROCS(0), proofChunk)
}

// checkUnsatProof is CheckUnsatProof over at most workers workers, dealing
// the additions out in chunks of chunk. Proofs with fewer than two chunks of
// additions are checked on the calling goroutine.
func checkUnsatProof(f *cnf.Formula, p Proof, workers, chunk int) error {
	adds, addLits := 0, 0
	for i, s := range p {
		for _, l := range s.Lits {
			if l < 0 || int(l.Var()) >= f.NumVars {
				return fmt.Errorf("verify: proof step %d mentions variable %d beyond the formula's %d",
					i, l.Var()+1, f.NumVars)
			}
		}
		if !s.Del {
			adds++
			addLits += len(s.Lits)
		}
	}
	if chunks := (adds + chunk - 1) / chunk; workers > chunks {
		workers = chunks
	}
	// Each worker reports its first failing step (or -1) and whether its
	// database derived the empty clause; stop lets workers skip the steps
	// past the lowest failure seen so far.
	type outcome struct {
		fail    int
		refuted bool
	}
	outs := make([]outcome, max(workers, 1))
	var stop atomic.Int64
	stop.Store(math.MaxInt64)
	check := func(id int) {
		fail, refuted := newChecker(f, adds, addLits).run(f, p, id, len(outs), chunk, &stop)
		outs[id] = outcome{fail, refuted}
	}
	var wg sync.WaitGroup
	for id := 1; id < len(outs); id++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			check(id)
		}()
	}
	check(0)
	wg.Wait()
	fail, refuted := -1, false
	for _, o := range outs {
		if o.fail >= 0 && (fail < 0 || o.fail < fail) {
			fail = o.fail
		}
		refuted = refuted || o.refuted
	}
	if fail >= 0 {
		return fmt.Errorf("verify: proof step %d is not a RUP consequence: %v", fail, clauseString(p[fail].Lits))
	}
	if refuted {
		return nil
	}
	return fmt.Errorf("verify: proof does not derive the empty clause (%d steps checked)", len(p))
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
// supporting temporary assumptions (for RUP checks) via trail truncation.
// The clause database is one flat arena; deletions find their clause through
// a hash table of normalised literal sets whose chains run through the clause
// headers.
type checker struct {
	arena    []cnf.Lit
	buckets  []int32 // hash of normalised literals → first clause offset, or -1
	mask     uint32
	watches  [][]watch // lit → watches of clauses that lit falsifies
	vals     []int8    // lit → 1 true, -1 false, 0 unassigned
	trail    []cnf.Lit
	marks    []uint32 // lit → stamp, for comparing literal sets on deletion
	stamp    uint32
	scratch  []cnf.Lit // normalisation buffer
	rootDone int       // trail entries already propagated at the root level
	conflict bool      // permanent root-level conflict (empty clause derived)
}

// newChecker sizes a checker for f plus a proof with adds additions holding
// addLits literals in total, so neither the arena nor the hash table grows.
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
	// Carve every watch list's initial capacity from one block: room for
	// the premise's two watches per clause, twice over.
	watches := make([][]watch, nlits)
	if nlits > 0 {
		per := 4*len(f.Clauses)/nlits + 4
		block := make([]watch, nlits*per)
		for l := range watches {
			watches[l] = block[l*per : l*per : (l+1)*per]
		}
	}
	return &checker{
		arena:   make([]cnf.Lit, 0, size),
		buckets: buckets,
		mask:    uint32(nb - 1),
		watches: watches,
		vals:    make([]int8, nlits),
		trail:   make([]cnf.Lit, 0, f.NumVars),
		marks:   make([]uint32, nlits),
	}
}

// run loads f, then replays p: every deletion, and every addition followed
// by root propagation. It RUP-checks the additions of chunks k with
// k mod workers == id and returns the step of the first that fails (or -1),
// and whether the database derived the empty clause. A failure lowers *stop
// to its step, and every worker gives up once its steps pass *stop.
func (ck *checker) run(f *cnf.Formula, p Proof, id, workers, chunk int, stop *atomic.Int64) (fail int, refuted bool) {
	for _, c := range f.Clauses {
		ck.add(c)
	}
	if ck.propagateRoot() {
		return -1, true // the formula propagates to a conflict on its own
	}
	adds := 0
	for i, s := range p {
		if int64(i) > stop.Load() {
			return -1, false // an earlier step already failed
		}
		if s.Del {
			ck.delete(s.Lits)
			continue
		}
		if (adds/chunk)%workers == id && !ck.checkRUP(s.Lits) {
			for cur := stop.Load(); int64(i) < cur; cur = stop.Load() {
				if stop.CompareAndSwap(cur, int64(i)) {
					break
				}
			}
			return i, false
		}
		adds++
		ck.add(s.Lits)
		if ck.propagateRoot() {
			return -1, true // empty clause derived
		}
	}
	return -1, false
}

// normalize sorts a copy of lits into the scratch buffer and drops duplicate
// literals. It also returns the hash of the result and whether it is a
// tautology.
func (ck *checker) normalize(lits []cnf.Lit) (norm []cnf.Lit, hash uint32, taut bool) {
	n := append(ck.scratch[:0], lits...)
	ck.scratch = n
	for i := 1; i < len(n); i++ {
		l, j := n[i], i
		for ; j > 0 && n[j-1] > l; j-- {
			n[j] = n[j-1]
		}
		n[j] = l
	}
	hash = 2166136261
	k := 0
	for _, l := range n {
		if k > 0 {
			if l == n[k-1] {
				continue
			}
			if l == n[k-1]^1 {
				taut = true
			}
		}
		n[k] = l
		k++
		hash = (hash ^ uint32(l)) * 16777619
	}
	return n[:k], hash, taut
}

func (ck *checker) assign(l cnf.Lit) {
	ck.vals[l] = 1
	ck.vals[l^1] = -1
	ck.trail = append(ck.trail, l)
}

// add installs a clause into the database at the root level. Clauses that
// are unit (or falsified) under the current root assignment enqueue their
// consequence (or set the conflict flag) immediately.
func (ck *checker) add(lits []cnf.Lit) {
	if ck.conflict {
		return
	}
	norm, hash, taut := ck.normalize(lits)
	if len(norm) == 0 {
		ck.conflict = true
		return
	}
	// Choose up to two non-false literals, moving them to the front.
	w := 0
	for i := 0; !taut && i < len(norm) && w < 2; i++ {
		if ck.vals[norm[i]] != -1 {
			norm[w], norm[i] = norm[i], norm[w]
			w++
		}
	}
	// Every clause is stored, tautologies and units included, so that a
	// deletion can match it.
	c := int32(len(ck.arena))
	b := hash & ck.mask
	ck.arena = append(ck.arena, cnf.Lit(len(norm)), cnf.Lit(ck.buckets[b]))
	ck.arena = append(ck.arena, norm...)
	ck.buckets[b] = c
	switch {
	case taut:
		return // never propagates
	case w == 0:
		ck.conflict = true
		return
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
}

// delete removes one live instance of the clause, if present.
func (ck *checker) delete(lits []cnf.Lit) {
	norm, hash, _ := ck.normalize(lits)
	ck.stamp++
	for _, l := range norm {
		ck.marks[l] = ck.stamp
	}
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
	for _, l := range ck.trail[mark:] {
		ck.vals[l] = 0
		ck.vals[l^1] = 0
	}
	ck.trail = ck.trail[:mark]
	return conflict
}
