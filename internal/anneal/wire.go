package anneal

import (
	"fmt"
	"math"
)

// WireProblem is the JSON form of an EmbeddedProblem: exactly the flattened,
// read-only structures the sweep kernel and the readback need, so a remote
// annealer service can reconstruct a sampleable problem without re-running
// the embedding pipeline. The hardware Graph and the Embedding object are
// deliberately absent — they are client-side provenance, not sampling state.
//
// The wire crosses a trust boundary. Problem re-validates every structural
// invariant before handing the arrays to the kernel, so a truncated,
// corrupted, or adversarial payload is rejected with a *WireError instead of
// panicking (or silently mis-sampling) the server.
type WireProblem struct {
	Qubits     []int     `json:"qubits"`
	H          []float64 `json:"h"`
	Offset     float64   `json:"offset"`
	AdjStart   []int32   `json:"adj_start"`
	AdjOther   []int32   `json:"adj_other"`
	AdjJ       []float64 `json:"adj_j"`
	AdjPair    []int32   `json:"adj_pair"`
	NumPairs   int       `json:"num_pairs"`
	ChainNodes []int     `json:"chain_nodes"`
	// Chains holds, per entry of ChainNodes, the active-qubit *indices* of
	// that logical node's chain (indices into Qubits, not raw qubit ids).
	Chains [][]int `json:"chains"`
}

// WireError reports a WireProblem that fails structural validation. Reason is
// a stable tag ("size", "h", "csr", "adj_index", "pair", "coeff", "chain",
// "chain_index", "qubit"); Detail elaborates for humans.
type WireError struct {
	Reason string
	Detail string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("anneal: invalid wire problem (%s): %s", e.Reason, e.Detail)
}

// MaxWireQubits bounds the qubit count a decoded wire problem may carry; it
// comfortably covers every real annealer topology (D-Wave Zephyr tops out
// below 10k qubits) while keeping a hostile payload from sizing gigabyte
// allocations.
const MaxWireQubits = 1 << 16

// Wire returns the wire form of the embedded problem. The returned struct
// aliases the problem's internal slices — treat it as read-only and encode it
// promptly.
func (ep *EmbeddedProblem) Wire() *WireProblem {
	w := ep.WireView()
	return &w
}

// WireView is Wire by value: the same aliased read-only view without the
// heap allocation, for hot-path consumers like the qbatch packer that walk
// the flattened structure on every request.
func (ep *EmbeddedProblem) WireView() WireProblem {
	return WireProblem{
		Qubits:     ep.Qubits,
		H:          ep.H,
		Offset:     ep.offset,
		AdjStart:   ep.adjStart,
		AdjOther:   ep.adjOther,
		AdjJ:       ep.adjJ,
		AdjPair:    ep.adjPair,
		NumPairs:   ep.numPairs,
		ChainNodes: ep.chainNodes,
		Chains:     ep.chainIx,
	}
}

// Problem validates the wire form and reconstructs a sampleable
// EmbeddedProblem. Every index the kernel will ever dereference is
// range-checked here, every coefficient must be finite, and derived state
// (coefficient scale, chain shape, qubit index) is recomputed rather than
// trusted — after a nil error the problem is safe to hand to Sampler.Sample
// and ValidateReadSet exactly like a locally-embedded one.
func (w *WireProblem) Problem() (*EmbeddedProblem, error) {
	n := len(w.Qubits)
	if n == 0 {
		return nil, &WireError{Reason: "size", Detail: "no active qubits"}
	}
	if n > MaxWireQubits {
		return nil, &WireError{Reason: "size",
			Detail: fmt.Sprintf("%d qubits exceeds the %d wire limit", n, MaxWireQubits)}
	}
	if len(w.H) != n {
		return nil, &WireError{Reason: "h",
			Detail: fmt.Sprintf("h has %d entries for %d qubits", len(w.H), n)}
	}
	m := len(w.AdjOther)
	if len(w.AdjJ) != m || len(w.AdjPair) != m {
		return nil, &WireError{Reason: "csr",
			Detail: fmt.Sprintf("adjacency arrays disagree: other=%d j=%d pair=%d",
				m, len(w.AdjJ), len(w.AdjPair))}
	}
	if m > MaxWireQubits*8 {
		return nil, &WireError{Reason: "size",
			Detail: fmt.Sprintf("%d adjacency entries exceeds the wire limit", m)}
	}
	if len(w.AdjStart) != n+1 {
		return nil, &WireError{Reason: "csr",
			Detail: fmt.Sprintf("adj_start has %d entries, want %d", len(w.AdjStart), n+1)}
	}
	if w.AdjStart[0] != 0 || int(w.AdjStart[n]) != m {
		return nil, &WireError{Reason: "csr",
			Detail: fmt.Sprintf("adj_start spans [%d,%d], want [0,%d]", w.AdjStart[0], w.AdjStart[n], m)}
	}
	for i := 0; i < n; i++ {
		if w.AdjStart[i] > w.AdjStart[i+1] {
			return nil, &WireError{Reason: "csr",
				Detail: fmt.Sprintf("adj_start decreases at row %d", i)}
		}
	}
	if w.NumPairs < 0 || w.NumPairs > m {
		return nil, &WireError{Reason: "pair",
			Detail: fmt.Sprintf("num_pairs %d outside [0,%d]", w.NumPairs, m)}
	}
	for k := 0; k < m; k++ {
		if o := w.AdjOther[k]; o < 0 || int(o) >= n {
			return nil, &WireError{Reason: "adj_index",
				Detail: fmt.Sprintf("entry %d names qubit index %d outside [0,%d)", k, o, n)}
		}
		if p := w.AdjPair[k]; p < 0 || int(p) >= w.NumPairs {
			return nil, &WireError{Reason: "pair",
				Detail: fmt.Sprintf("entry %d names pair %d outside [0,%d)", k, p, w.NumPairs)}
		}
		if !isFinite(w.AdjJ[k]) {
			return nil, &WireError{Reason: "coeff",
				Detail: fmt.Sprintf("coupler %d is non-finite", k)}
		}
	}
	for i, h := range w.H {
		if !isFinite(h) {
			return nil, &WireError{Reason: "coeff",
				Detail: fmt.Sprintf("field %d is non-finite", i)}
		}
	}
	if !isFinite(w.Offset) {
		return nil, &WireError{Reason: "coeff", Detail: "offset is non-finite"}
	}
	if len(w.ChainNodes) != len(w.Chains) {
		return nil, &WireError{Reason: "chain",
			Detail: fmt.Sprintf("%d chain nodes but %d chains", len(w.ChainNodes), len(w.Chains))}
	}
	if len(w.ChainNodes) == 0 {
		return nil, &WireError{Reason: "chain", Detail: "no chains"}
	}

	ep := &EmbeddedProblem{
		Qubits:   w.Qubits,
		H:        w.H,
		offset:   w.Offset,
		adjStart: w.AdjStart,
		adjOther: w.AdjOther,
		adjJ:     w.AdjJ,
		adjPair:  w.AdjPair,
		numPairs: w.NumPairs,
		nodeOf:   make([]int, n),
	}
	seen := make(map[int]struct{}, n)
	for _, q := range w.Qubits {
		if _, dup := seen[q]; dup {
			return nil, &WireError{Reason: "qubit",
				Detail: fmt.Sprintf("qubit id %d appears twice", q)}
		}
		seen[q] = struct{}{}
	}
	for i := range ep.nodeOf {
		ep.nodeOf[i] = -1
	}
	ep.chainNodes = w.ChainNodes
	ep.chainIx = w.Chains
	prev := math.MinInt
	for ci, node := range w.ChainNodes {
		if node <= prev {
			return nil, &WireError{Reason: "chain",
				Detail: fmt.Sprintf("chain nodes not strictly increasing at entry %d", ci)}
		}
		prev = node
		chain := w.Chains[ci]
		if len(chain) == 0 {
			return nil, &WireError{Reason: "chain",
				Detail: fmt.Sprintf("chain for node %d is empty", node)}
		}
		for _, ix := range chain {
			if ix < 0 || ix >= n {
				return nil, &WireError{Reason: "chain_index",
					Detail: fmt.Sprintf("chain for node %d names qubit index %d outside [0,%d)", node, ix, n)}
			}
			ep.nodeOf[ix] = node
		}
		ep.chainQubits += len(chain)
		if len(chain) > ep.maxChainLen {
			ep.maxChainLen = len(chain)
		}
	}
	for _, v := range ep.H {
		if a := math.Abs(v); a > ep.maxAbs {
			ep.maxAbs = a
		}
	}
	for _, j := range ep.adjJ {
		if a := math.Abs(j); a > ep.maxAbs {
			ep.maxAbs = a
		}
	}
	return ep, nil
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }
