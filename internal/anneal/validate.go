package anneal

import (
	"fmt"
	"math"
)

// ReadSetError reports a malformed ReadSet at the sampler/solver boundary:
// a device access whose shape does not match what was requested (truncated
// sample vectors, read-count mismatches) or whose content is physically
// impossible (non-finite energies, readouts naming chains the embedding does
// not carry). The hybrid loop treats a ReadSetError like any other backend
// fault — the read set is rejected wholesale rather than silently classified.
type ReadSetError struct {
	// Reason is a stable tag naming the violated invariant: "empty",
	// "read_count", "best_index", "nil_values", "energy", "chain_count",
	// "unknown_node", or "shape" for a wire response that does not decode
	// to a read set (qpu.SampleResponse.ReadSet).
	Reason string
	// Read is the index of the offending read, or -1 for set-level faults.
	Read int
	// Detail is a human-readable elaboration.
	Detail string
}

func (e *ReadSetError) Error() string {
	if e.Read < 0 {
		return fmt.Sprintf("anneal: invalid read set (%s): %s", e.Reason, e.Detail)
	}
	return fmt.Sprintf("anneal: invalid read set (%s) at read %d: %s", e.Reason, e.Read, e.Detail)
}

// ValidateReadSet checks that rs is a plausible outcome of drawing wantReads
// samples from ep: the requested number of reads came back, the best index is
// in range, every read carries a finite hardware energy and a complete
// readout (exactly one value per embedded chain, no unknown logical nodes).
// A nil error means the set is safe to unembed and classify; any violation is
// reported as a *ReadSetError. wantReads ≤ 0 is normalised to 1, matching
// Sampler.Sample.
func ValidateReadSet(ep *EmbeddedProblem, rs *ReadSet, wantReads int) error {
	if wantReads <= 0 {
		wantReads = 1
	}
	if len(rs.Samples) == 0 {
		return &ReadSetError{Reason: "empty", Read: -1, Detail: "no samples returned"}
	}
	if len(rs.Samples) != wantReads {
		return &ReadSetError{Reason: "read_count", Read: -1,
			Detail: fmt.Sprintf("got %d samples, requested %d", len(rs.Samples), wantReads)}
	}
	if rs.Best < 0 || rs.Best >= len(rs.Samples) {
		return &ReadSetError{Reason: "best_index", Read: -1,
			Detail: fmt.Sprintf("best index %d outside [0,%d)", rs.Best, len(rs.Samples))}
	}
	chains := len(ep.chainNodes)
	for i := range rs.Samples {
		s := &rs.Samples[i]
		if s.NodeValues == nil {
			return &ReadSetError{Reason: "nil_values", Read: i, Detail: "readout carries no node values"}
		}
		if math.IsNaN(s.HardwareEnergy) || math.IsInf(s.HardwareEnergy, 0) {
			return &ReadSetError{Reason: "energy", Read: i,
				Detail: fmt.Sprintf("non-finite hardware energy %v", s.HardwareEnergy)}
		}
		if len(s.NodeValues) != chains {
			return &ReadSetError{Reason: "chain_count", Read: i,
				Detail: fmt.Sprintf("readout covers %d chains, embedding has %d", len(s.NodeValues), chains)}
		}
		// With the counts equal, a missing chain means the readout names a
		// node the embedding does not carry. Looking the chains up is cheaper
		// than walking the map, and this runs on every QA access.
		for _, node := range ep.chainNodes {
			if _, ok := s.NodeValues[node]; !ok {
				return &ReadSetError{Reason: "unknown_node", Read: i,
					Detail: fmt.Sprintf("readout lacks logical node %d and names one the embedding does not carry", node)}
			}
		}
	}
	return nil
}
