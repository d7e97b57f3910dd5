package verify

// Handles for the external verify_test package, which can reach the hybrid
// solver's and the cube runs' proofs: the checker's fallback count, the
// reference checker, the hint corruptions, and the certification corpus.
var (
	HintFallbacks            = checkUnsatProof
	ReferenceCheckUnsatProof = referenceCheckUnsatProof
	HintMutations            = hintMutations
	CertCorpus               = certCorpus
)

// RecorderBytes is the backing store r holds: its blocks' capacities and
// the block list's headers.
func RecorderBytes(r *Recorder) int {
	n := 24 * cap(r.log.blocks)
	for _, b := range r.log.blocks {
		n += cap(b)
	}
	return n
}
