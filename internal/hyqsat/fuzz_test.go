package hyqsat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// fuzzEmbedding lazily builds one real encoding + embedding shared by all
// fuzz executions (construction is far more expensive than the property).
var fuzzEmbedding struct {
	once   sync.Once
	embEnc *qubo.Encoding
	ep     *anneal.EmbeddedProblem
	vars   int
}

func fuzzSetup(t testing.TB) (*qubo.Encoding, *anneal.EmbeddedProblem, int) {
	fuzzEmbedding.once.Do(func() {
		rng := rand.New(rand.NewSource(17))
		const nVars = 10
		var clauses []cnf.Clause
		for i := 0; i < 12; i++ {
			perm := rng.Perm(nVars)[:3]
			c := make(cnf.Clause, 3)
			for j, v := range perm {
				c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
			}
			clauses = append(clauses, c)
		}
		enc, err := qubo.Encode(clauses)
		if err != nil {
			return
		}
		g := topo.DWave2000Q()
		res := embed.Fast(enc, g)
		if res.EmbeddedClauses == 0 {
			return
		}
		embEnc := enc.Restrict(res.EmbeddedSet)
		is := embEnc.Program(&qubo.Sums{}, false)
		fuzzEmbedding.embEnc = embEnc
		fuzzEmbedding.ep = new(anneal.EmbedScratch).EmbedIsing(is, res.Embedding, g, anneal.ChainStrengthFor(is))
		fuzzEmbedding.vars = nVars
	})
	if fuzzEmbedding.embEnc == nil {
		t.Fatal("fuzz embedding construction failed")
	}
	return fuzzEmbedding.embEnc, fuzzEmbedding.ep, fuzzEmbedding.vars
}

// FuzzUnembedCorrupt is the satellite fuzz target of the fault-tolerance
// layer: unembedding (sampleReader.interpret) and boundary validation must never
// panic on corrupted sample vectors — negative or absurd logical node keys,
// non-finite energies, arbitrary value patterns. Corrupted reads are a
// modelled fault (FaultInjector's corrupt profile); the solver's contract is
// to reject them, not to crash on them.
func FuzzUnembedCorrupt(f *testing.F) {
	// Seed corpus: a well-formed readout, negative node keys, a huge key,
	// non-finite energies, an empty readout.
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 0, 0, 0}, 0.0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1}, 1.5)          // node -1
	f.Add([]byte{0x7f, 0xff, 0xff, 0xff, 0}, math.NaN())   // node 2^31-1
	f.Add([]byte{0x80, 0x00, 0x00, 0x00, 1}, math.Inf(1))  // node -2^31
	f.Add([]byte{}, math.Inf(-1))                          // no readout at all
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, -1e300) // ragged tail
	f.Fuzz(func(t *testing.T, raw []byte, energy float64) {
		embEnc, ep, nVars := fuzzSetup(t)
		// Decode raw into a node→value readout: 5 bytes per entry, a signed
		// 32-bit node key plus a value bit, so the fuzzer controls exactly the
		// fields a corrupted transport would.
		values := map[int]bool{}
		for i := 0; i+5 <= len(raw); i += 5 {
			node := int(int32(binary.BigEndian.Uint32(raw[i : i+4])))
			values[node] = raw[i+4]&1 == 1
		}
		sample := anneal.Sample{NodeValues: values, HardwareEnergy: energy}

		// Unembedding must tolerate any readout shape.
		var r sampleReader
		e, assign := r.interpret(embEnc, sample, nVars)
		_ = e
		if len(assign) != nVars {
			t.Fatalf("assignment covers %d vars, want %d", len(assign), nVars)
		}
		// Validation must classify it (valid or typed error), never panic.
		rs := anneal.ReadSet{Samples: []anneal.Sample{sample}}
		_ = anneal.ValidateReadSet(ep, &rs, 1)
	})
}
