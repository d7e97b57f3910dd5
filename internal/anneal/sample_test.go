package anneal

import (
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// testEmbeddedProblem builds a representative embedded problem from a few
// random 3-SAT clauses.
func testEmbeddedProblem(t testing.TB, seed int64, numClauses int) *EmbeddedProblem {
	rng := rand.New(rand.NewSource(seed))
	g := topo.DWave2000Q()
	var clauses []cnf.Clause
	for i := 0; i < numClauses; i++ {
		perm := rng.Perm(10)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		clauses = append(clauses, c)
	}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses != numClauses {
		t.Fatalf("embedded %d/%d clauses", res.EmbeddedClauses, numClauses)
	}
	is := enc.Program(&qubo.Sums{}, false)
	return new(EmbedScratch).EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))
}

func sameSample(a, b Sample) bool {
	if a.BrokenChains != b.BrokenChains || a.HardwareEnergy != b.HardwareEnergy {
		return false
	}
	if len(a.NodeValues) != len(b.NodeValues) {
		return false
	}
	for k, v := range a.NodeValues {
		if w, ok := b.NodeValues[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestSampleDeterministicAcrossWorkerCounts is the reproducibility contract:
// for a fixed sampler seed, Sample(ep, n) returns bit-identical reads (and
// the same best index) at every worker count.
func TestSampleDeterministicAcrossWorkerCounts(t *testing.T) {
	ep := testEmbeddedProblem(t, 11, 12)
	const numReads = 16
	var ref ReadSet
	for _, workers := range []int{1, 2, 8} {
		s := NewSampler(DefaultSchedule(), DWave2000QNoise, 99)
		s.Workers = workers
		rs := s.Sample(ep, numReads)
		if len(rs.Samples) != numReads {
			t.Fatalf("workers=%d: got %d reads, want %d", workers, len(rs.Samples), numReads)
		}
		if workers == 1 {
			ref = rs
			continue
		}
		if rs.Best != ref.Best {
			t.Fatalf("workers=%d: best read %d, serial best %d", workers, rs.Best, ref.Best)
		}
		for i := range rs.Samples {
			if !sameSample(rs.Samples[i], ref.Samples[i]) {
				t.Fatalf("workers=%d: read %d differs from serial run", workers, i)
			}
		}
	}
}

// TestSampleSuccessiveCallsDrawFreshRandomness guards the call-counter
// mixing: two Sample calls on the same problem must not return identical
// read sets (else every hybrid iteration would see the same device output).
func TestSampleSuccessiveCallsDrawFreshRandomness(t *testing.T) {
	ep := testEmbeddedProblem(t, 12, 12)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 7)
	a := s.Sample(ep, 8)
	b := s.Sample(ep, 8)
	same := true
	for i := range a.Samples {
		if !sameSample(a.Samples[i], b.Samples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two successive Sample calls returned identical read sets")
	}
}

// TestSampleBestIsLowestEnergy checks the best-read selection and its
// earliest-index tie-break.
func TestSampleBestIsLowestEnergy(t *testing.T) {
	ep := testEmbeddedProblem(t, 13, 10)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 3)
	rs := s.Sample(ep, 12)
	for i, smp := range rs.Samples {
		if smp.HardwareEnergy < rs.Samples[rs.Best].HardwareEnergy {
			t.Fatalf("read %d has energy %v < best read %d energy %v",
				i, smp.HardwareEnergy, rs.Best, rs.Samples[rs.Best].HardwareEnergy)
		}
		if smp.HardwareEnergy == rs.Samples[rs.Best].HardwareEnergy && i < rs.Best {
			t.Fatalf("tie at energy %v not broken towards earliest read (%d vs %d)",
				smp.HardwareEnergy, i, rs.Best)
		}
	}
	if got := rs.BestSample(); !sameSample(got, rs.Samples[rs.Best]) {
		t.Fatal("BestSample does not return Samples[Best]")
	}
}

// TestSampleConcurrentCallers exercises concurrent Sample calls on one
// sampler and one shared EmbeddedProblem (meaningful under -race).
func TestSampleConcurrentCallers(t *testing.T) {
	ep := testEmbeddedProblem(t, 14, 10)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 21)
	s.Workers = 4
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				rs := s.Sample(ep, 6)
				if len(rs.Samples) != 6 {
					t.Errorf("got %d reads, want 6", len(rs.Samples))
				}
			}
		}()
	}
	wg.Wait()
}

// TestSampleOnceMatchesSampleInto pins the wrapper to the zero-alloc path.
func TestSampleOnceMatchesSampleInto(t *testing.T) {
	ep := testEmbeddedProblem(t, 15, 10)
	a := NewSampler(DefaultSchedule(), DWave2000QNoise, 5)
	b := NewSampler(DefaultSchedule(), DWave2000QNoise, 5)
	var out Sample
	for i := 0; i < 4; i++ {
		got := a.SampleOnce(ep)
		b.SampleInto(ep, &out)
		if !sameSample(got, out) {
			t.Fatalf("iteration %d: SampleOnce and SampleInto diverge", i)
		}
	}
}

// TestSampleIntoZeroAllocs asserts the steady-state zero-allocation contract
// of the sweep kernel: after warm-up, repeated SampleInto on the same problem
// allocates nothing (noise path included).
func TestSampleIntoZeroAllocs(t *testing.T) {
	ep := testEmbeddedProblem(t, 16, 12)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 9)
	var out Sample
	s.SampleInto(ep, &out) // warm up scratch and the NodeValues map
	allocs := testing.AllocsPerRun(20, func() {
		s.SampleInto(ep, &out)
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocates %.1f objects per run in steady state, want 0", allocs)
	}
}

// TestMaxAbsPrecomputed checks the finalize-time coefficient scale against a
// direct scan of the embedded problem.
func TestMaxAbsPrecomputed(t *testing.T) {
	ep := testEmbeddedProblem(t, 17, 12)
	want := 0.0
	for _, v := range ep.H {
		if a := math.Abs(v); a > want {
			want = a
		}
	}
	for _, j := range ep.adjJ {
		if a := math.Abs(j); a > want {
			want = a
		}
	}
	if ep.maxAbs != want {
		t.Fatalf("precomputed maxAbs %v, scan says %v", ep.maxAbs, want)
	}
	if want == 0 {
		t.Fatal("degenerate test problem: all coefficients zero")
	}
}

// TestPairIDsSymmetric checks that the CSR pair index maps both directions of
// every coupler to one id, and every id to exactly two entries.
func TestPairIDsSymmetric(t *testing.T) {
	ep := testEmbeddedProblem(t, 18, 12)
	count := make(map[int32]int, ep.numPairs)
	for i := 0; i < len(ep.Qubits); i++ {
		for k := ep.adjStart[i]; k < ep.adjStart[i+1]; k++ {
			count[ep.adjPair[k]]++
			// Find the reverse entry and require the same pair id and J.
			o := ep.adjOther[k]
			found := false
			for r := ep.adjStart[o]; r < ep.adjStart[o+1]; r++ {
				if int(ep.adjOther[r]) == i {
					found = true
					if ep.adjPair[r] != ep.adjPair[k] {
						t.Fatalf("pair id mismatch for coupler (%d,%d)", i, o)
					}
					if ep.adjJ[r] != ep.adjJ[k] {
						t.Fatalf("asymmetric J for coupler (%d,%d)", i, o)
					}
				}
			}
			if !found {
				t.Fatalf("coupler (%d,%d) has no reverse CSR entry", i, o)
			}
		}
	}
	if len(count) != ep.numPairs {
		t.Fatalf("%d distinct pair ids, numPairs says %d", len(count), ep.numPairs)
	}
	for id, c := range count {
		if c != 2 {
			t.Fatalf("pair id %d appears in %d entries, want 2", id, c)
		}
	}
}

// qubitNodes maps every active qubit of ep to the logical node of its
// chain, or −1 when it is in no chain.
func qubitNodes(ep *EmbeddedProblem) []int {
	nodes := make([]int, len(ep.Qubits))
	for i, c := range chainsOfQubits(ep) {
		nodes[i] = -1
		if c >= 0 {
			nodes[i] = ep.chainNodes[c]
		}
	}
	return nodes
}

// chainsOfQubits maps every active qubit of ep to the index of its chain,
// or −1 when it is in no chain.
func chainsOfQubits(ep *EmbeddedProblem) []int32 {
	chainOf := make([]int32, len(ep.Qubits))
	for i := range chainOf {
		chainOf[i] = -1
	}
	for c, ix := range ep.chainIx {
		for _, i := range ix {
			chainOf[i] = int32(c)
		}
	}
	return chainOf
}

// TestChainGraph checks the chain graph of every oracle problem against its
// definition: the fold list holds, in row order, exactly the CSR entries of
// chain rows that leave their chain; an entry from chain d to chain c holds
// the slot of d in row c, and one to a qubit in no chain names d itself;
// every row lists distinct chains in ascending order, each named by at
// least one entry. One graph is rebuilt for every problem in turn, so its
// buffers grow and shrink as in a worker's scratch.
func TestChainGraph(t *testing.T) {
	problems := oracleProblems(t)
	var cg chainGraph
	free := 0
	for _, name := range sortedNames(problems) {
		ep := problems[name]
		cg.build(ep)
		chainOf := chainsOfQubits(ep)
		var want []int32 // CSR entries that leave their chain, in row order
		for _, ix := range ep.chainIx {
			for _, i := range ix {
				for k := ep.adjStart[i]; k < ep.adjStart[i+1]; k++ {
					if chainOf[ep.adjOther[k]] != chainOf[i] {
						want = append(want, k)
					}
				}
			}
		}
		if len(cg.fold) != len(want) {
			t.Fatalf("%s: %d fold entries, want %d", name, len(cg.fold), len(want))
		}
		if len(cg.start) != len(ep.chainIx)+1 || cg.start[len(ep.chainIx)] != int32(len(cg.nbr)) {
			t.Fatalf("%s: chain CSR of %d offsets and %d slots for %d chains", name, len(cg.start), len(cg.nbr), len(ep.chainIx))
		}
		used := make([]bool, len(cg.nbr))
		for x, e := range cg.fold {
			if e.k != want[x] {
				t.Fatalf("%s: fold entry %d is CSR entry %d, want %d", name, x, e.k, want[x])
			}
			row := sort.Search(len(ep.Qubits), func(i int) bool { return ep.adjStart[i+1] > e.k })
			d, c := chainOf[row], chainOf[ep.adjOther[e.k]]
			switch {
			case c < 0:
				if e.to != ^d {
					t.Fatalf("%s: entry %d from chain %d to a free qubit folds to %d", name, e.k, d, e.to)
				}
				free++
			case e.to < cg.start[c] || e.to >= cg.start[c+1] || cg.nbr[e.to] != d:
				t.Fatalf("%s: entry %d from chain %d to chain %d folds to slot %d", name, e.k, d, c, e.to)
			default:
				used[e.to] = true
			}
		}
		for c := range ep.chainIx {
			row := cg.nbr[cg.start[c]:cg.start[c+1]]
			for x := 1; x < len(row); x++ {
				if row[x] <= row[x-1] {
					t.Fatalf("%s: chain row %d not strictly ascending: %v", name, c, row)
				}
			}
		}
		if k := slices.Index(used, false); k >= 0 {
			t.Fatalf("%s: chain slot %d is named by no CSR entry", name, k)
		}
	}
	if free == 0 {
		t.Fatal("no oracle problem has a coupler from a chain to a qubit in no chain")
	}
}

// referenceSampleWith is the sweep kernel as first written: the chain sweep
// scans every chain qubit's whole CSR row and skips intra-node entries, and
// every acceptance test calls math.Exp. sampleWith must reproduce it bit for
// bit wherever every sum is exact (TestSampleWithMatchesReference) and in
// distribution everywhere (TestSampleWithMatchesReferenceStatistics).
func referenceSampleWith(s *Sampler, ep *EmbeddedProblem, rng *rand.Rand, out *Sample) {
	n := len(ep.Qubits)
	h := ep.H
	j := ep.adjJ
	// Programming noise: perturb copies of the coefficients, one Gaussian
	// draw per field and per unordered coupler pair (both CSR directions of a
	// coupler receive the same perturbation).
	if s.Noise.CoefficientSigma > 0 {
		sigma := s.Noise.CoefficientSigma * ep.maxAbs
		h = slices.Clone(ep.H)
		for i := range h {
			h[i] += sigma * rng.NormFloat64()
		}
		pairNoise := make([]float64, ep.numPairs)
		for p := range pairNoise {
			pairNoise[p] = sigma * rng.NormFloat64()
		}
		j = make([]float64, len(ep.adjJ))
		for k := range j {
			j[k] = ep.adjJ[k] + pairNoise[ep.adjPair[k]]
		}
	}

	// Random initial state, chain-aligned: the device initialises in a
	// superposition and strong chain couplers keep chains coherent; a chain
	// starts as one logical spin.
	spins := make([]int8, n)
	for i := range spins {
		spins[i] = 1
	}
	for _, ix := range ep.chainIx {
		v := int8(1)
		if rng.Intn(2) == 0 {
			v = -1
		}
		for _, i := range ix {
			spins[i] = v
		}
	}

	// Metropolis sweeps with geometric β schedule. Moves are chain-level
	// (an intact chain behaves as one logical spin in the device; the strong
	// ferromagnetic coupling makes independent qubit flips within a chain
	// exponentially unlikely), followed by a short single-qubit phase that
	// lets hardware imperfection express itself, including chain breaks.
	sched := s.Schedule
	if sched.Sweeps <= 0 {
		sched = DefaultSchedule()
	}
	beta := sched.BetaMin
	ratio := 1.0
	if sched.Sweeps > 1 {
		ratio = math.Pow(sched.BetaMax/sched.BetaMin, 1/float64(sched.Sweeps-1))
	}
	node := qubitNodes(ep)
	adjStart, adjOther := ep.adjStart, ep.adjOther
	for sweep := 0; sweep < sched.Sweeps; sweep++ {
		for _, ix := range ep.chainIx {
			// ΔE of flipping the whole chain: internal couplers are
			// unchanged, only fields and chain-boundary couplers count.
			sum := 0.0
			for _, i := range ix {
				local := h[i]
				myNode := node[i]
				for k := adjStart[i]; k < adjStart[i+1]; k++ {
					o := adjOther[k]
					if node[o] != myNode {
						local += j[k] * float64(spins[o])
					}
				}
				sum += float64(spins[i]) * local
			}
			dE := -2 * sum
			if dE <= 0 || rng.Float64() < math.Exp(-beta*dE) {
				for _, i := range ix {
					spins[i] = -spins[i]
				}
			}
		}
		beta *= ratio
	}
	// Single-qubit relaxation at final β.
	qubitSweeps := sched.Sweeps / 16
	if qubitSweeps < 2 {
		qubitSweeps = 2
	}
	for sweep := 0; sweep < qubitSweeps; sweep++ {
		for i := 0; i < n; i++ {
			local := h[i]
			for k := adjStart[i]; k < adjStart[i+1]; k++ {
				local += j[k] * float64(spins[adjOther[k]])
			}
			dE := -2 * float64(spins[i]) * local
			if dE <= 0 || rng.Float64() < math.Exp(-sched.BetaMax*dE) {
				spins[i] = -spins[i]
			}
		}
	}

	// Readout noise.
	if s.Noise.ReadoutFlipProb > 0 {
		for i := range spins {
			if rng.Float64() < s.Noise.ReadoutFlipProb {
				spins[i] = -spins[i]
			}
		}
	}

	// Hardware energy of the read spins (with the true, unperturbed
	// coefficients — that is what the device reports).
	energy := ep.offset
	for i := 0; i < n; i++ {
		energy += ep.H[i] * float64(spins[i])
		for k := adjStart[i]; k < adjStart[i+1]; k++ {
			if o := int(adjOther[k]); o > i {
				energy += ep.adjJ[k] * float64(spins[i]) * float64(spins[o])
			}
		}
	}

	// Unembed: majority vote per chain (sorted node order keeps the
	// tie-breaking RNG stream deterministic).
	if out.NodeValues == nil {
		out.NodeValues = make(map[int]bool, len(ep.chainNodes))
	} else {
		clear(out.NodeValues)
	}
	broken := 0
	for ci, node := range ep.chainNodes {
		up, down := 0, 0
		for _, i := range ep.chainIx[ci] {
			if spins[i] > 0 {
				up++
			} else {
				down++
			}
		}
		if up > 0 && down > 0 {
			broken++
		}
		switch {
		case up > down:
			out.NodeValues[node] = true
		case down > up:
			out.NodeValues[node] = false
		default:
			out.NodeValues[node] = rng.Intn(2) == 0
		}
	}
	out.BrokenChains = broken
	out.HardwareEnergy = energy
}

// oracleProblems returns embedded problems of every construction the sampler
// serves: random clause sets programmed by EmbedIsing over Fast and
// Minorminer embeddings on Chimera, over Fast embeddings on the Chimera
// fabric of a Pegasus (whose odd couplers join chains the fabric alone does
// not) and on a Chimera with broken qubits, and wire-decoded problems with
// one chain dropped, so that some active qubits lie outside every chain.
func oracleProblems(t *testing.T) map[string]*EmbeddedProblem {
	rng := rand.New(rand.NewSource(41))
	out := map[string]*EmbeddedProblem{}
	randEncoding := func() *qubo.Encoding {
		q := make([]cnf.Clause, 10+rng.Intn(30))
		for i := range q {
			c := make(cnf.Clause, 1+rng.Intn(3))
			for j := range c {
				c[j] = cnf.MkLit(cnf.Var(rng.Intn(20)), rng.Intn(2) == 1)
			}
			q[i] = c
		}
		enc, err := qubo.Encode(q)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	chimera := topo.NewChimera(8, 8, 4)
	for trial := 0; trial < 6; trial++ {
		enc := randEncoding()
		name := fmt.Sprintf("chimera/fast%d", trial)
		emb := embed.Fast(enc, chimera).Embedding
		if trial%2 == 1 {
			name = fmt.Sprintf("chimera/minorminer%d", trial)
			var err error
			if emb, err = (&embed.Minorminer{Seed: int64(trial)}).Embed(embed.ProblemFromEncoding(enc), chimera); err != nil {
				continue
			}
		}
		is := enc.Program(&qubo.Sums{}, false)
		out[name] = new(EmbedScratch).EmbedIsing(is, emb, chimera, ChainStrengthFor(is))
	}
	pegasus := topo.NewPegasus(9)
	broken := make([]int, 40)
	for i := range broken {
		broken[i] = rng.Intn(8 * 8 * 2 * 4)
	}
	faulted := topo.NewChimera(8, 8, 4, broken...)
	for _, hw := range []struct {
		name   string
		g      topo.Topology
		fabric *topo.Chimera
	}{{"pegasus", pegasus, pegasus.Fabric()}, {"faulted", faulted, faulted}} {
		for trial := 0; trial < 3; trial++ {
			enc := randEncoding()
			res := embed.Fast(enc, hw.fabric)
			is := enc.Restrict(res.EmbeddedSet).Program(&qubo.Sums{}, true)
			out[fmt.Sprintf("%s/fast%d", hw.name, trial)] = new(EmbedScratch).EmbedIsing(is, res.Embedding, hw.g, ChainStrengthFor(is))
		}
	}
	for name, ep := range maps.Clone(out) {
		if len(ep.chainNodes) < 3 {
			continue
		}
		w := ep.WireView()
		drop := len(w.ChainNodes) / 2
		w.ChainNodes = slices.Delete(slices.Clone(w.ChainNodes), drop, drop+1)
		w.Chains = slices.Delete(slices.Clone(w.Chains), drop, drop+1)
		blob, err := json.Marshal(&w)
		if err != nil {
			t.Fatal(err)
		}
		var dec WireProblem
		if err := json.Unmarshal(blob, &dec); err != nil {
			t.Fatal(err)
		}
		wp, err := dec.Problem()
		if err != nil {
			t.Fatalf("%s: wire form with a dropped chain rejected: %v", name, err)
		}
		out[name+"/wire"] = wp
	}
	return out
}

// sortedNames returns the keys of problems in order.
func sortedNames(problems map[string]*EmbeddedProblem) []string {
	names := make([]string, 0, len(problems))
	for name := range problems {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// dyadic returns a copy of ep whose fields and couplers are rounded to
// multiples of 1/64. Every sum the sampling kernels form over such
// coefficients and ±1 spins is exact, so summation order cannot matter.
func dyadic(ep *EmbeddedProblem) *EmbeddedProblem {
	round := func(v float64) float64 { return math.Round(v*64) / 64 }
	cp := *ep
	cp.H = make([]float64, len(ep.H))
	cp.adjJ = make([]float64, len(ep.adjJ))
	cp.maxAbs = 0
	for i, v := range ep.H {
		cp.H[i] = round(v)
		cp.maxAbs = max(cp.maxAbs, math.Abs(cp.H[i]))
	}
	for k, v := range ep.adjJ {
		cp.adjJ[k] = round(v)
		cp.maxAbs = max(cp.maxAbs, math.Abs(cp.adjJ[k]))
	}
	return &cp
}

// TestSampleWithMatchesReference is the kernel's bit-identity oracle: on a
// dyadic copy (see dyadic) of every problem of oracleProblems, with no
// programming noise, with and without readout noise and under several
// schedules, sampleWith returns the energy bits, node values and
// chain-break count of referenceSampleWith and leaves its RNG at the same
// stream position. One scratch serves every problem, so buffers that grow
// and shrink between problems are covered too.
func TestSampleWithMatchesReference(t *testing.T) {
	problems := oracleProblems(t)
	names := sortedNames(problems)
	outside := 0
	for _, name := range names {
		if slices.Contains(qubitNodes(problems[name]), -1) {
			outside++
		}
	}
	if outside == 0 {
		t.Fatal("no oracle problem has a qubit outside every chain")
	}
	schedules := []struct {
		name  string
		sched Schedule
		reads int
	}{
		{"default", DefaultSchedule(), 3},
		{"long", LongSchedule(), 1},
		{"one-sweep", Schedule{Sweeps: 1, BetaMin: 0.1, BetaMax: 32}, 3},
	}
	noises := []struct {
		name  string
		noise Noise
	}{{"nonoise", NoNoise}, {"readout", Noise{ReadoutFlipProb: DWave2000QNoise.ReadoutFlipProb}}}
	var scr Scratch
	seed := int64(0)
	for _, name := range names {
		ep := dyadic(problems[name])
		for _, sc := range schedules {
			for _, nz := range noises {
				s := &Sampler{Schedule: sc.sched, Noise: nz.noise}
				for read := 0; read < sc.reads; read++ {
					seed++
					gotRng := rand.New(rand.NewSource(seed))
					wantRng := rand.New(rand.NewSource(seed))
					var got, want Sample
					s.sampleWith(ep, gotRng, &scr, &got)
					referenceSampleWith(s, ep, wantRng, &want)
					if math.Float64bits(got.HardwareEnergy) != math.Float64bits(want.HardwareEnergy) ||
						got.BrokenChains != want.BrokenChains || !maps.Equal(got.NodeValues, want.NodeValues) {
						t.Fatalf("%s %s %s read %d: kernel (E=%v broken=%d) differs from reference (E=%v broken=%d)",
							name, sc.name, nz.name, read, got.HardwareEnergy, got.BrokenChains, want.HardwareEnergy, want.BrokenChains)
					}
					if g, w := gotRng.Int63(), wantRng.Int63(); g != w {
						t.Fatalf("%s %s %s read %d: RNG stream position differs from reference", name, sc.name, nz.name, read)
					}
				}
			}
		}
	}
}

// TestSampleWithMatchesReferenceStatistics compares sampleWith with
// referenceSampleWith on the unrounded oracle problems, with and without
// programming noise, where the kernels sum the same terms in different
// orders and so may part ways at a near-tie. Over statReads reads per
// problem at fixed seeds, the kernels' mean energies must agree within four
// standard errors of their difference, and their ground-state hit rates
// (reads at the lowest energy either kernel found) within four standard
// errors of a difference of two such rates plus one read. The kernels are
// paired on seeds, so most reads coincide and the actual gaps sit far
// inside both bounds; a kernel that drops a term or misplaces a sign moves
// them by many standard errors.
func TestSampleWithMatchesReferenceStatistics(t *testing.T) {
	const statReads = 400
	problems := oracleProblems(t)
	var scr Scratch
	for _, nz := range []struct {
		name  string
		noise Noise
	}{{"nonoise", NoNoise}, {"dwave", DWave2000QNoise}} {
		s := &Sampler{Schedule: DefaultSchedule(), Noise: nz.noise}
		seed := int64(1000)
		for _, name := range sortedNames(problems) {
			ep := problems[name]
			got := make([]float64, statReads)
			want := make([]float64, statReads)
			same := 0
			for read := range got {
				seed++
				var g, w Sample
				s.sampleWith(ep, rand.New(rand.NewSource(seed)), &scr, &g)
				referenceSampleWith(s, ep, rand.New(rand.NewSource(seed)), &w)
				got[read], want[read] = g.HardwareEnergy, w.HardwareEnergy
				if math.Abs(g.HardwareEnergy-w.HardwareEnergy) <= 1e-9 {
					same++
				}
			}
			ground := min(slices.Min(got), slices.Min(want))
			mg, vg, hg := energyStats(got, ground)
			mw, vw, hw := energyStats(want, ground)
			n := float64(statReads)
			if se := math.Sqrt((vg + vw) / n); math.Abs(mg-mw) > 4*se+1e-9 {
				t.Errorf("%s %s: mean energy %.4f vs reference %.4f, beyond 4 standard errors (%.4f)",
					name, nz.name, mg, mw, se)
			}
			p := (hg + hw) / 2
			if se := math.Sqrt(2 * p * (1 - p) / n); math.Abs(hg-hw) > 4*se+1/n {
				t.Errorf("%s %s: ground-state hit rate %.3f vs reference %.3f, beyond 4 standard errors (%.3f)",
					name, nz.name, hg, hw, se)
			}
			t.Logf("%s %s: %d/%d reads within 1e-9 of the reference; mean %.4f vs %.4f; ground rate %.3f vs %.3f",
				name, nz.name, same, statReads, mg, mw, hg, hw)
		}
	}
}

// energyStats returns the mean and variance of the energies and the share
// of them within 1e-9 of ground.
func energyStats(es []float64, ground float64) (mean, variance, hit float64) {
	for _, e := range es {
		mean += e
		if e-ground <= 1e-9 {
			hit++
		}
	}
	n := float64(len(es))
	mean /= n
	for _, e := range es {
		variance += (e - mean) * (e - mean)
	}
	return mean, variance / n, hit / n
}

// TestAcceptMatchesExp pins the Metropolis test to its definition: for
// every draw rand.Float64 can return that the grid reaches (0, 2⁻⁶³, 2⁻⁶²,
// random draws, and the draws nearest math.Exp(-x) and the edges of accept's
// fallback band) and every move cost on a grid through the estimate's whole
// range [0, 44], the cut-off at 43–45, the underflow of Exp at 700–760,
// +Inf and the values accept leaves to Exp (negative and NaN), accept(u, x)
// equals u < math.Exp(-x).
func TestAcceptMatchesExp(t *testing.T) {
	if !(math.Exp(-expCutoff) < 0x1p-63) {
		t.Fatalf("math.Exp(-%d) = %g is not below 2⁻⁶³: the cut-off is not exact", expCutoff, math.Exp(-expCutoff))
	}
	var xs []float64
	for x := 0.0; x <= 50; x += 0.001 {
		xs = append(xs, x)
	}
	for x := 43.0; x <= 45; x += 1e-5 {
		xs = append(xs, x)
	}
	for x := 700.0; x <= 760; x += 0.01 {
		xs = append(xs, x)
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100000; i++ {
		xs = append(xs, 44*rng.Float64())
	}
	xs = append(xs, expCutoff, math.Nextafter(expCutoff, 0), math.Nextafter(expCutoff, 100),
		math.Inf(1), math.Copysign(0, -1), -1e-300, -0.5, -700, math.Inf(-1), math.NaN())
	for _, x := range xs {
		e := math.Exp(-x)
		us := []float64{0, 0x1p-63, 0x1p-62, rng.Float64(), rng.Float64()}
		for _, c := range []float64{e, e * (1 - expBand), e * (1 + expBand)} {
			for _, u := range []float64{math.Nextafter(c, 0), c, math.Nextafter(c, 1)} {
				if u >= 0x1p-63 && u < 1 {
					us = append(us, u)
				}
			}
		}
		for _, u := range us {
			if got, want := accept(u, x), u < e; got != want {
				t.Fatalf("accept(%v, %v) = %v, u < math.Exp(-x) says %v", u, x, got, want)
			}
		}
	}
}

// TestSampleOneReadAllocs pins the allocations of a one-read Sample, the
// call every hybrid QA access makes: the read set, its sample and node-value
// map, and the fan-out's bookkeeping. The worker scratch and its RNG are the
// sampler's, reused and reseeded in place, so neither the 4.9 KB rngSource
// nor the kernel buffers are allocated per access.
func TestSampleOneReadAllocs(t *testing.T) {
	ep := testEmbeddedProblem(t, 19, 12)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 4)
	s.Sample(ep, 1) // warm up the sampler's worker scratch
	allocs := testing.AllocsPerRun(50, func() { s.Sample(ep, 1) })
	if allocs > 11 {
		t.Fatalf("Sample(ep, 1) allocates %.1f objects, want at most 11", allocs)
	}
}
