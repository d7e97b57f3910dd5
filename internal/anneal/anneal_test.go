package anneal

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

func TestTimingModel(t *testing.T) {
	tm := DWave2000QTiming()
	if got := tm.AccessTime(0); got != 0 {
		t.Fatalf("AccessTime(0) = %v", got)
	}
	// 60 samples: 60·130µs + 59·20µs + programming.
	want := tm.ProgrammingTime + 60*130*time.Microsecond + 59*20*time.Microsecond
	if got := tm.AccessTime(60); got != want {
		t.Fatalf("AccessTime(60) = %v, want %v", got, want)
	}
}

// encodeAndEmbed builds the QUBO encoding of the clauses and fast-embeds it.
func encodeAndEmbed(t *testing.T, clauses []cnf.Clause, g *topo.Chimera) (*qubo.Encoding, *embed.FastResult) {
	t.Helper()
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses != len(clauses) {
		t.Fatalf("embedded %d/%d clauses", res.EmbeddedClauses, len(clauses))
	}
	return enc, res
}

func TestEmbedIsingStructure(t *testing.T) {
	g := topo.NewChimera(4, 4, 4)
	enc, res := encodeAndEmbed(t, []cnf.Clause{cnf.NewClause(1, 2, 3)}, g)
	is := enc.Program(&qubo.Sums{}, false)
	ep := new(EmbedScratch).EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))
	if ep.NumActiveQubits() != res.Embedding.QubitsUsed() {
		t.Fatalf("active qubits %d vs embedding %d", ep.NumActiveQubits(), res.Embedding.QubitsUsed())
	}
	// Field conservation: Σ per-qubit fields of a chain == logical h.
	for ci, node := range ep.chainNodes {
		chainIx := ep.chainIx[ci]
		sum := 0.0
		for _, i := range chainIx {
			sum += ep.H[i]
		}
		if want := is.H[node]; math.Abs(sum-want) > 1e-9 {
			t.Fatalf("node %d: chain field sum %v, logical %v", node, sum, want)
		}
	}
}

func TestEmbedIsingPanicsOnMissingCoupler(t *testing.T) {
	g := topo.NewChimera(2, 2, 2)
	is := &qubo.Ising{H: []float64{0, 0}, J: []qubo.QuadTerm{{Edge: qubo.Edge{U: 0, V: 1}, C: 1}}}
	emb := embed.NewEmbedding()
	emb.Chains[0] = []int{g.Qubit(0, 0, true, 0)}
	emb.Chains[1] = []int{g.Qubit(1, 1, true, 0)} // no coupler between them
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unrealised coupling")
		}
	}()
	new(EmbedScratch).EmbedIsing(is, emb, g, 1)
}

func TestHardwareSampleSolvesSatisfiableClauses(t *testing.T) {
	// A small satisfiable clause set: the noise-free sampler with a long
	// schedule should reach unit energy 0 in most samples.
	rng := rand.New(rand.NewSource(3))
	g := topo.DWave2000Q()
	f := cnf.New(12)
	for i := 0; i < 18; i++ {
		perm := rng.Perm(12)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		f.AddClause(c)
	}
	// Force satisfiability by flipping literals towards the all-true model.
	for i, c := range f.Clauses {
		sat := false
		for _, l := range c {
			if !l.IsNeg() {
				sat = true
			}
		}
		if !sat {
			f.Clauses[i][0] = f.Clauses[i][0].Not()
		}
	}
	enc, res := encodeAndEmbed(t, f.Clauses, g)
	is := enc.Program(&qubo.Sums{}, true)
	ep := new(EmbedScratch).EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))

	s := NewSampler(LongSchedule(), NoNoise, 7)
	zero := 0
	for trial := 0; trial < 10; trial++ {
		sample := s.SampleOnce(ep)
		x := make([]bool, enc.NumNodes())
		for node, v := range sample.NodeValues {
			x[node] = v
		}
		if enc.UnitEnergy(x) < 0.5 {
			zero++
		}
	}
	if zero < 5 {
		t.Fatalf("reached zero unit energy only %d/10 times", zero)
	}
}

func TestNoiseDegradesEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := topo.DWave2000Q()
	var clauses []cnf.Clause
	for i := 0; i < 15; i++ {
		perm := rng.Perm(10)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), false) // all-positive: trivially satisfiable
		}
		clauses = append(clauses, c)
	}
	enc, res := encodeAndEmbed(t, clauses, g)
	is := enc.Program(&qubo.Sums{}, false)
	ep := new(EmbedScratch).EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))

	meanEnergy := func(noise Noise, sched Schedule, seed int64) float64 {
		s := NewSampler(sched, noise, seed)
		total := 0.0
		for trial := 0; trial < 20; trial++ {
			sample := s.SampleOnce(ep)
			x := make([]bool, enc.NumNodes())
			for node, v := range sample.NodeValues {
				x[node] = v
			}
			total += enc.UnitEnergy(x)
		}
		return total / 20
	}
	clean := meanEnergy(NoNoise, LongSchedule(), 11)
	noisy := meanEnergy(Noise{CoefficientSigma: 0.2, ReadoutFlipProb: 0.1}, DefaultSchedule(), 11)
	if noisy <= clean {
		t.Fatalf("noise did not degrade energy: clean %v noisy %v", clean, noisy)
	}
}

func TestBrokenChainsReported(t *testing.T) {
	// Huge readout noise must break some chains of a multi-qubit-chain
	// embedding.
	rng := rand.New(rand.NewSource(9))
	g := topo.DWave2000Q()
	var clauses []cnf.Clause
	for i := 0; i < 12; i++ {
		perm := rng.Perm(9)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		clauses = append(clauses, c)
	}
	enc, res := encodeAndEmbed(t, clauses, g)
	if res.Embedding.MaxChainLength() < 2 {
		t.Skip("no multi-qubit chains to break")
	}
	is := enc.Program(&qubo.Sums{}, false)
	ep := new(EmbedScratch).EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))
	s := NewSampler(DefaultSchedule(), Noise{ReadoutFlipProb: 0.4}, 13)
	broken := 0
	for trial := 0; trial < 10; trial++ {
		broken += s.SampleOnce(ep).BrokenChains
	}
	if broken == 0 {
		t.Fatal("40% readout noise broke no chains")
	}
}

func TestSampleOnceDeterministicForSeed(t *testing.T) {
	g := topo.NewChimera(4, 4, 4)
	enc, res := encodeAndEmbed(t, []cnf.Clause{cnf.NewClause(1, 2, 3), cnf.NewClause(-1, 2, 4)}, g)
	is := enc.Program(&qubo.Sums{}, false)
	ep := new(EmbedScratch).EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))
	a := NewSampler(DefaultSchedule(), DWave2000QNoise, 99).SampleOnce(ep)
	b := NewSampler(DefaultSchedule(), DWave2000QNoise, 99).SampleOnce(ep)
	if a.HardwareEnergy != b.HardwareEnergy || a.BrokenChains != b.BrokenChains {
		t.Fatal("same seed produced different samples")
	}
	for k, v := range a.NodeValues {
		if b.NodeValues[k] != v {
			t.Fatalf("same seed, different node %d", k)
		}
	}
}

func TestChainStrengthFor(t *testing.T) {
	is := &qubo.Ising{H: []float64{0.5, 0}, J: []qubo.QuadTerm{{Edge: qubo.Edge{U: 0, V: 1}, C: -2}}}
	if got := ChainStrengthFor(is); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("chain strength %v, want 1.25·2 = 2.5", got)
	}
	if ChainStrengthFor(&qubo.Ising{}) != 1 {
		t.Fatal("zero model should give strength 1")
	}
}
