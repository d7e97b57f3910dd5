package verify

import (
	"runtime"

	"hyqsat/internal/cnf"
)

// Handles for the external verify_test package, which can reach the hybrid
// solver's proofs: the checker's explicit worker/chunk entry point and its
// fallback count, the reference checker, the hint corruptions, and the
// certification corpus.
var (
	ReferenceCheckUnsatProof = referenceCheckUnsatProof
	HintMutations            = hintMutations
	CertCorpus               = certCorpus
)

const ProofChunk = proofChunk

// CheckUnsatProofWith is CheckUnsatProof over at most workers workers,
// dealing the RUP-checked additions out in chunks of chunk.
func CheckUnsatProofWith(f *cnf.Formula, p Proof, workers, chunk int) error {
	_, err := checkUnsatProof(f, p, workers, chunk)
	return err
}

// HintFallbacks is CheckUnsatProof that also returns how many additions fell
// back from their hints to a RUP check.
func HintFallbacks(f *cnf.Formula, p Proof) (int, error) {
	return checkUnsatProof(f, p, runtime.GOMAXPROCS(0), proofChunk)
}

// RecorderBytes is the backing store r holds: its blocks' capacities and
// the block list's headers.
func RecorderBytes(r *Recorder) int {
	n := 24 * cap(r.log.blocks)
	for _, b := range r.log.blocks {
		n += cap(b)
	}
	return n
}
