package verify

import (
	"hyqsat/internal/cnf"
	"hyqsat/internal/sat"
)

// Step is one line of a DRAT proof: a clause addition (the clause must be a
// RUP consequence of everything before it) or a clause deletion. Hints, on
// an addition, are the LRAT-style clause ids of its derivation (see
// sat.ProofWriter); a step without hints is checked by unit propagation.
type Step struct {
	Del   bool
	Lits  []cnf.Lit
	Hints []int32
}

// Proof is an ordered DRAT proof trace, optionally hinted. An addition step
// with no literals is the empty clause, which concludes an unsatisfiability
// proof. The zero Proof is empty.
//
// A Proof is stored flat: its steps are varint-encoded back to back into
// byte blocks (each step whole within one block), so a recorded step costs a
// few bytes per literal and hint and no allocation of its own. A Proof is a
// read-only view; appending to the log it came from does not change it.
type Proof struct {
	blocks [][]byte
	proofCounts
}

// proofCounts summarises a proof for the checker, which sizes its database
// from it and validates literals only when maxLit says one is out of range.
type proofCounts struct {
	n       int    // steps
	adds    int    // additions
	addLits int    // literals over all additions
	maxLit  uint32 // largest literal as uint32 bits (a negative one is huge)
	hinted  bool   // some addition carries hints
}

// NewProof returns the proof made of steps, in order.
func NewProof(steps ...Step) Proof {
	var l proofLog
	for _, s := range steps {
		l.add(s.Del, s.Lits, s.Hints)
	}
	return l.proof()
}

// Len returns the number of steps.
func (p Proof) Len() int { return p.n }

// Steps decodes the proof into freshly allocated steps.
func (p Proof) Steps() []Step {
	out := make([]Step, 0, p.n)
	r := p.reader()
	for r.next() {
		s := Step{Del: r.del}
		if len(r.lits) > 0 {
			s.Lits = append([]cnf.Lit(nil), r.lits...)
		}
		if len(r.hints) > 0 {
			s.Hints = append([]int32(nil), r.hints...)
		}
		out = append(out, s)
	}
	return out
}

// step decodes step i.
func (p Proof) step(i int) Step {
	r := p.reader()
	for j := 0; j <= i; j++ {
		r.next()
	}
	return Step{Del: r.del, Lits: r.lits, Hints: r.hints}
}

// Block sizes of a proofLog: the first block is small, so a short proof stays
// small, and each next one doubles up to the cap, which bounds the unused
// tail of the last block.
const (
	minProofBlock = 256
	maxProofBlock = 64 << 10
)

// proofLog is the append-only encoder behind Recorder, SharedRecorder and
// NewProof. A step is uvarint(len(lits)<<1 | del), then, for an addition,
// uvarint(len(hints)), then each literal and each hint as the uvarint of its
// uint32 bits.
type proofLog struct {
	blocks [][]byte
	proofCounts
}

func (l *proofLog) add(del bool, lits []cnf.Lit, hints []int32) {
	if del {
		hints = nil
	}
	// Five bytes bound each uvarint of a 32-bit value.
	need := 5 * (2 + len(lits) + len(hints))
	k := len(l.blocks)
	if k == 0 || cap(l.blocks[k-1])-len(l.blocks[k-1]) < need {
		size := minProofBlock
		if k > 0 {
			size = min(2*cap(l.blocks[k-1]), maxProofBlock)
		}
		l.blocks = append(l.blocks, make([]byte, 0, max(size, need)))
		k++
	}
	b := l.blocks[k-1]
	hdr := uint32(len(lits)) << 1
	if del {
		hdr |= 1
	}
	b = putUvarint(b, hdr)
	if !del {
		b = putUvarint(b, uint32(len(hints)))
	}
	for _, x := range lits {
		b = putUvarint(b, uint32(x))
		l.maxLit = max(l.maxLit, uint32(x))
	}
	for _, h := range hints {
		b = putUvarint(b, uint32(h))
	}
	l.blocks[k-1] = b
	l.n++
	if !del {
		l.adds++
		l.addLits += len(lits)
	}
	l.hinted = l.hinted || len(hints) > 0
}

// proof returns a view of the steps logged so far. It copies the block list
// (not the blocks), so later appends stay invisible to it.
func (l *proofLog) proof() Proof {
	return Proof{blocks: append([][]byte(nil), l.blocks...), proofCounts: l.proofCounts}
}

func putUvarint(b []byte, x uint32) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// proofReader decodes a Proof step by step into reused buffers: after a
// successful next, del, lits and hints describe the current step until the
// following call.
type proofReader struct {
	blocks [][]byte
	b      []byte // unread bytes of the current block
	del    bool
	lits   []cnf.Lit
	hints  []int32
}

func (p Proof) reader() proofReader {
	return proofReader{blocks: p.blocks}
}

func (r *proofReader) next() bool {
	for len(r.b) == 0 {
		if len(r.blocks) == 0 {
			return false
		}
		r.b, r.blocks = r.blocks[0], r.blocks[1:]
	}
	b := r.b
	hdr, i := uvarint(b, 0)
	r.del = hdr&1 != 0
	nh := uint32(0)
	if !r.del {
		nh, i = uvarint(b, i)
	}
	r.lits = r.lits[:0]
	for k := hdr >> 1; k > 0; k-- {
		var x uint32
		x, i = uvarint(b, i)
		r.lits = append(r.lits, cnf.Lit(x))
	}
	r.hints = r.hints[:0]
	for ; nh > 0; nh-- {
		var x uint32
		x, i = uvarint(b, i)
		r.hints = append(r.hints, int32(x))
	}
	r.b = b[i:]
	return true
}

// uvarint decodes the uvarint at b[i:] and returns it with the index after
// it.
func uvarint(b []byte, i int) (uint32, int) {
	c := b[i]
	if c < 0x80 {
		return uint32(c), i + 1
	}
	x := uint32(c & 0x7f)
	for shift := 7; ; shift += 7 {
		i++
		c = b[i]
		x |= uint32(c&0x7f) << shift
		if c < 0x80 {
			return x, i + 1
		}
	}
}

// --- Capturing proofs from the solver ---

var _ sat.ProofWriter = (*Recorder)(nil)

// Recorder is an in-memory sat.ProofWriter. It encodes every step it
// receives, hints included, into its flat log, so the recorded proof stays
// valid after the solver moves on. A Recorder is not safe for concurrent
// use; attach one recorder per solver.
type Recorder struct {
	log proofLog
}

// NewRecorder returns an empty proof recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// ProofAdd implements sat.ProofWriter.
func (r *Recorder) ProofAdd(lits []cnf.Lit, hints []int32) { r.log.add(false, lits, hints) }

// ProofDelete implements sat.ProofWriter.
func (r *Recorder) ProofDelete(lits []cnf.Lit) { r.log.add(true, lits, nil) }

// Proof returns the trace recorded so far.
func (r *Recorder) Proof() Proof { return r.log.proof() }

// Len returns the number of recorded steps.
func (r *Recorder) Len() int { return r.log.n }
