package anneal

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// wireTestProblem builds a small multi-clause embedded problem for wire tests.
func wireTestProblem(t testing.TB) *EmbeddedProblem {
	t.Helper()
	g := topo.NewChimera(4, 4, 4)
	clauses := []cnf.Clause{
		cnf.NewClause(1, 2, 3),
		cnf.NewClause(-4, 5, 6),
	}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses != len(clauses) {
		t.Fatalf("embedded %d/%d clauses", res.EmbeddedClauses, len(clauses))
	}
	is := enc.Program(&qubo.Sums{}, false)
	return new(EmbedScratch).EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))
}

// A wire round trip must preserve sampling behaviour exactly: the
// reconstructed problem drives the kernel over identical arrays, so a sampler
// with the same seed must produce bit-identical read sets.
func TestWireProblemRoundTripSamplesIdentically(t *testing.T) {
	ep := wireTestProblem(t)
	blob, err := json.Marshal(ep.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w WireProblem
	if err := json.Unmarshal(blob, &w); err != nil {
		t.Fatal(err)
	}
	ep2, err := w.Problem()
	if err != nil {
		t.Fatalf("round-tripped wire problem rejected: %v", err)
	}

	a := NewSampler(DefaultSchedule(), DWave2000QNoise, 42)
	b := NewSampler(DefaultSchedule(), DWave2000QNoise, 42)
	rsA := a.Sample(ep, 5)
	rsB := b.Sample(ep2, 5)
	if !reflect.DeepEqual(rsA, rsB) {
		t.Fatalf("wire round trip changed sampling:\nlocal:  %+v\nremote: %+v", rsA, rsB)
	}
	if err := ValidateReadSet(ep2, &rsB, 5); err != nil {
		t.Fatalf("read set from reconstructed problem invalid: %v", err)
	}
	if ep2.maxChainLen != ep.maxChainLen || ep2.chainQubits != ep.chainQubits {
		t.Fatalf("chain shape not recomputed: got (%d,%d) want (%d,%d)",
			ep2.maxChainLen, ep2.chainQubits, ep.maxChainLen, ep.chainQubits)
	}
}

// Every structural corruption a hostile or truncated payload can introduce
// must be rejected with a typed *WireError, never panic or pass through.
func TestWireProblemRejectsCorruption(t *testing.T) {
	base := func(t *testing.T) *WireProblem {
		// A fresh deep copy per case so mutations don't leak between cases.
		blob, err := json.Marshal(wireTestProblem(t).Wire())
		if err != nil {
			t.Fatal(err)
		}
		var w WireProblem
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatal(err)
		}
		return &w
	}
	cases := []struct {
		name   string
		mutate func(w *WireProblem)
		reason string
	}{
		{"no qubits", func(w *WireProblem) { w.Qubits = nil }, "size"},
		{"oversized", func(w *WireProblem) { w.Qubits = make([]int, MaxWireQubits+1) }, "size"},
		{"h mismatch", func(w *WireProblem) { w.H = w.H[:len(w.H)-1] }, "h"},
		{"csr ragged", func(w *WireProblem) { w.AdjJ = w.AdjJ[:len(w.AdjJ)-1] }, "csr"},
		{"csr short", func(w *WireProblem) { w.AdjStart = w.AdjStart[:len(w.AdjStart)-1] }, "csr"},
		{"csr decreasing", func(w *WireProblem) { w.AdjStart[1] = w.AdjStart[len(w.AdjStart)-1] + 1 }, "csr"},
		{"adj index out of range", func(w *WireProblem) { w.AdjOther[0] = int32(len(w.Qubits)) }, "adj_index"},
		{"adj index negative", func(w *WireProblem) { w.AdjOther[0] = -1 }, "adj_index"},
		{"pair out of range", func(w *WireProblem) { w.AdjPair[0] = int32(w.NumPairs) }, "pair"},
		{"num_pairs negative", func(w *WireProblem) { w.NumPairs = -1 }, "pair"},
		{"chain count mismatch", func(w *WireProblem) { w.Chains = w.Chains[:len(w.Chains)-1] }, "chain"},
		{"no chains", func(w *WireProblem) { w.ChainNodes, w.Chains = nil, nil }, "chain"},
		{"empty chain", func(w *WireProblem) { w.Chains[0] = nil }, "chain"},
		{"unsorted chain nodes", func(w *WireProblem) { w.ChainNodes[0] = w.ChainNodes[1] }, "chain"},
		{"chain index out of range", func(w *WireProblem) { w.Chains[0][0] = len(w.Qubits) }, "chain_index"},
		{"chain index negative", func(w *WireProblem) { w.Chains[0][0] = -2 }, "chain_index"},
		{"chain index in two chains", func(w *WireProblem) { w.Chains[1][0] = w.Chains[0][0] }, "chain_index"},
		{"chain index twice in a chain", func(w *WireProblem) { w.Chains[0] = append(w.Chains[0], w.Chains[0][0]) }, "chain_index"},
		{"duplicate qubit id", func(w *WireProblem) { w.Qubits[1] = w.Qubits[0] }, "qubit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := base(t)
			tc.mutate(w)
			_, err := w.Problem()
			we, ok := err.(*WireError)
			if !ok {
				t.Fatalf("got %v, want *WireError", err)
			}
			if we.Reason != tc.reason {
				t.Fatalf("reason %q, want %q (%v)", we.Reason, tc.reason, we)
			}
		})
	}
	// Non-finite coefficients cannot round-trip JSON, but a hand-built wire
	// struct (or a non-JSON transport) can carry them.
	w := base(t)
	w.H[0] = math.NaN()
	if _, err := w.Problem(); err == nil {
		t.Fatal("NaN field accepted")
	}
	w = base(t)
	w.AdjJ[0] = math.Inf(1)
	if _, err := w.Problem(); err == nil {
		t.Fatal("infinite coupler accepted")
	}
	w = base(t)
	w.Offset = math.Inf(-1)
	if _, err := w.Problem(); err == nil {
		t.Fatal("infinite offset accepted")
	}
}

// FuzzWireProblemDecode: arbitrary JSON must either decode into a problem
// that passes validation (and is then safe to sample) or produce a typed
// error — never a panic or an out-of-range access in the kernel.
func FuzzWireProblemDecode(f *testing.F) {
	ep := wireTestProblem(f)
	blob, err := json.Marshal(ep.Wire())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"qubits":[0],"h":[0],"adj_start":[0,0],"chain_nodes":[0],"chains":[[0]]}`))
	f.Add([]byte(`{"qubits":[0,0],"h":[1e308,-1e308]}`))
	f.Add(blob[:len(blob)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireProblem
		if err := json.Unmarshal(data, &w); err != nil {
			return
		}
		p, err := w.Problem()
		if err != nil {
			if _, ok := err.(*WireError); !ok {
				t.Fatalf("untyped wire rejection: %v", err)
			}
			return
		}
		// Accepted problems must actually be sampleable.
		s := NewSampler(Schedule{Sweeps: 2, BetaMin: 0.1, BetaMax: 1}, NoNoise, 1)
		rs := s.Sample(p, 1)
		if verr := ValidateReadSet(p, &rs, 1); verr != nil {
			t.Fatalf("accepted wire problem produced invalid read set: %v", verr)
		}
	})
}
