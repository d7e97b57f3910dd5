package verify

// Handles for the external verify_test package, which can reach the hybrid
// solver's proofs: the checker's explicit worker/chunk entry point, the
// reference checker, and the certification corpus.
var (
	CheckUnsatProofWith      = checkUnsatProof
	ReferenceCheckUnsatProof = referenceCheckUnsatProof
	CertCorpus               = certCorpus
)

const ProofChunk = proofChunk
