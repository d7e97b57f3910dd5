package verify

import (
	"sync"

	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

var _ sat.ProofWriter = (*SharedRecorder)(nil)

// SharedRecorder is the proof log of a group of solvers over one premise —
// the probe and the workers of a cube-and-conquer run: one totally-ordered,
// additions-only trace they append to concurrently.
//
// Why this is sound: RUP is monotone under clause additions — a clause that
// is a RUP consequence of the premise plus some prefix stays one when other
// additions are interleaved into that prefix, so each solver's derivations
// still check in the merged log. Deletions are dropped: they are
// solver-local (a clause one solver discards may still be live in another's
// derivation order), and keeping every addition alive only makes the
// checker's propagation stronger.
//
// A certificate is Snapshot() taken at verdict time: the verdict's empty
// clause is already in the log (solvers log before returning), appends that
// arrive afterwards are excluded, and the checker accepts as soon as the
// empty clause is derived.
type SharedRecorder struct {
	mu    sync.Mutex
	steps Proof
}

// NewSharedRecorder returns an empty shared proof log.
func NewSharedRecorder() *SharedRecorder { return &SharedRecorder{} }

// ProofAdd implements sat.ProofWriter. Safe for concurrent use.
func (r *SharedRecorder) ProofAdd(lits []cnf.Lit) {
	cp := append([]cnf.Lit(nil), lits...)
	r.mu.Lock()
	r.steps = append(r.steps, Step{Lits: cp})
	r.mu.Unlock()
}

// ProofDelete implements sat.ProofWriter as a no-op: deletions are
// solver-local and never enter the shared log (see type comment).
func (r *SharedRecorder) ProofDelete([]cnf.Lit) {}

// Snapshot returns a copy of the log as recorded so far. Safe to call while
// solvers are still appending; the copy is a consistent prefix.
func (r *SharedRecorder) Snapshot() Proof {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append(Proof(nil), r.steps...)
}
