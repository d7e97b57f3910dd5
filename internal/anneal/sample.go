package anneal

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"hyqsat/internal/obs"
)

// Sampler draws samples from embedded problems.
//
// SampleOnce and SampleInto consume the sampler's own Rng stream and scratch
// buffers and must not be called concurrently. Sample fans reads across a
// worker pool with per-read RNG streams and is safe to call from multiple
// goroutines (each call takes a fresh call index; results depend only on the
// order calls are issued, never on the number of workers).
type Sampler struct {
	Schedule Schedule
	Noise    Noise
	Rng      *rand.Rand
	// Workers bounds the worker pool used by Sample and SampleBatch; 0
	// means runtime.NumCPU(). The sampled values do not depend on it.
	Workers int
	// Trace, when non-nil and enabled, receives one QACallEvent per sampled
	// problem (per Sample call, per SampleBatch member) with the per-read
	// energies and chain-break counts. Tracing never touches the sweep
	// kernel (SampleInto stays 0 allocs/op) and never consumes sampler
	// randomness, so sampled values are unchanged.
	Trace obs.Tracer
	// Timing, when set, stamps QACallEvents with the modelled device time of
	// the access. It does not affect sampling.
	Timing TimingModel

	seed    int64
	calls   atomic.Int64
	scratch Scratch // serial-path buffers for SampleOnce / SampleInto

	// idle holds SampleBatch worker scratches between calls, so a device
	// access reuses their buffers and RNG instead of allocating them. It
	// grows to the sampler's peak number of concurrent workers.
	idleMu sync.Mutex
	idle   []*Scratch
}

// NewSampler returns a sampler with the given schedule and noise, seeded
// deterministically.
func NewSampler(sched Schedule, noise Noise, seed int64) *Sampler {
	return &Sampler{Schedule: sched, Noise: noise, Rng: rand.New(rand.NewSource(seed)), seed: seed}
}

// Scratch holds the reusable buffers of one sampling worker: the spin state,
// the perturbed-coefficient copies of the programming-noise model, the
// chain graph of the problem it last sampled, and the per-read chain
// couplings, signs and fields of the chain phase. A scratch grows to fit
// whatever problem it is used on and is never shared between concurrent
// workers.
type Scratch struct {
	spins     []float64 // ±1 per active qubit
	h         []float64 // perturbed per-qubit fields
	j         []float64 // perturbed per-entry couplers (CSR order)
	pairNoise []float64 // one Gaussian draw per unordered coupler pair
	chainK    []float64 // per chain slot: summed coupling (chainGraph.nbr)
	chainS    []float64 // ±1 per chain
	chainG    []float64 // per chain: S_c times its local field, so ΔE = −2·G_c

	// graph is the chain graph of graphOf. It depends only on a problem's
	// structure, which never changes after construction, so it is rebuilt
	// only when the scratch meets another problem.
	graphOf *EmbeddedProblem
	graph   chainGraph

	// rng is the per-read stream of a SampleBatch worker scratch, reseeded
	// in place for every read (sampleRead); nil until first used.
	rng *rand.Rand
}

// fit sizes the buffers for ep and builds its chain graph. Once a scratch
// has been used on a problem of the same or larger size, fit allocates
// nothing.
func (scr *Scratch) fit(ep *EmbeddedProblem) {
	scr.spins = fitSlice(scr.spins, len(ep.Qubits))
	scr.h = fitSlice(scr.h, len(ep.Qubits))
	scr.j = fitSlice(scr.j, len(ep.adjJ))
	scr.pairNoise = fitSlice(scr.pairNoise, ep.numPairs)
	if scr.graphOf != ep {
		scr.graph.build(ep)
		scr.graphOf = ep
	}
	scr.chainK = fitSlice(scr.chainK, len(scr.graph.nbr))
	scr.chainS = fitSlice(scr.chainS, len(ep.chainIx))
	scr.chainG = fitSlice(scr.chainG, len(ep.chainIx))
}

// chainGraph is the structure the kernel's chain phase runs on: there an
// intact chain is one logical spin, so a chain move needs only the chain's
// field and its couplings to other chains. Row c of the chain CSR lists, in
// ascending order, every chain d whose qubits have a CSR entry naming a
// qubit of c: slot s of row c holds the coupling by which chain c's spin
// enters d's field. fold lists the CSR entries each read folds into those
// couplings and into the chains' fields.
type chainGraph struct {
	start []int32     // chain CSR row offsets, len(chainIx)+1
	nbr   []int32     // per slot: the listening chain d
	fold  []foldEntry // chain rows' entries that leave their chain, in row order
	work  []int32     // build's per-qubit and per-chain arrays
}

// foldEntry is one CSR entry k of a chain qubit's row whose far qubit lies
// outside the chain: to is a coupling slot of the chain CSR, or ^c when the
// far qubit is in no chain, whose spin stays +1 through the chain phase, so
// that the coupler adds to the field of chain c.
type foldEntry struct{ k, to int32 }

// build derives ep's chain graph from its CSR adjacency and chain lists. An
// entry in a row of chain d naming a qubit of chain c ≠ d folds into the
// slot of d in row c. A hybrid QA access samples a problem once, so a build
// costs about as much as a read's fold: one pass over every chain row
// collects the entries that leave their chain without a branch, and the
// passes that follow visit only those (about a fifth of the entries on a
// uf150 queue).
func (cg *chainGraph) build(ep *EmbeddedProblem) {
	n, nc := len(ep.Qubits), len(ep.chainIx)
	// chainOf maps an active qubit to its chain, −1 when in no chain;
	// foldAt[d] is where chain d's entries start in the fold list; seen[c]
	// is d+1 in the counting pass, and ^d in the filling pass, once chain
	// d's rows have named chain c; at counts each chain CSR row's slots,
	// then is its fill cursor.
	cg.work = fitSlice(cg.work, n+3*nc+1)
	chainOf, foldAt := cg.work[:n], cg.work[n:n+nc+1]
	seen, at := cg.work[n+nc+1:n+2*nc+1], cg.work[n+2*nc+1:]
	for i := range chainOf {
		chainOf[i] = -1
	}
	clear(seen)
	clear(at)
	for c, ix := range ep.chainIx {
		for _, i := range ix {
			chainOf[i] = int32(c)
		}
	}
	// Every entry is written at the list's end, which advances only past
	// an entry that leaves its chain.
	fold := fitSlice(cg.fold, len(ep.adjOther))
	m := 0
	for d, ix := range ep.chainIx {
		foldAt[d] = int32(m)
		for _, i := range ix {
			for k := ep.adjStart[i]; k < ep.adjStart[i+1]; k++ {
				c := chainOf[ep.adjOther[k]]
				fold[m] = foldEntry{k, c}
				if int(c) != d {
					m++
				}
			}
		}
	}
	foldAt[nc] = int32(m)
	fold = fold[:m]
	for d := 0; d < nc; d++ {
		for x := foldAt[d]; x < foldAt[d+1]; x++ {
			if c := fold[x].to; c < 0 {
				fold[x].to = ^int32(d)
			} else if seen[c] != int32(d+1) {
				seen[c] = int32(d + 1)
				at[c]++
			}
		}
	}
	start := fitSlice(cg.start, nc+1)
	start[0] = 0
	for c, slots := range at {
		start[c+1] = start[c] + slots
	}
	nbr := fitSlice(cg.nbr, int(start[nc]))
	copy(at, start[:nc])
	for d := 0; d < nc; d++ {
		for x := foldAt[d]; x < foldAt[d+1]; x++ {
			c := fold[x].to
			if c < 0 {
				continue
			}
			if seen[c] != ^int32(d) {
				seen[c] = ^int32(d)
				nbr[at[c]] = int32(d)
				at[c]++
			}
			fold[x].to = at[c] - 1
		}
	}
	cg.start, cg.nbr, cg.fold = start, nbr, fold
}

// takeScratch returns an idle worker scratch, or a new one.
func (s *Sampler) takeScratch() *Scratch {
	s.idleMu.Lock()
	defer s.idleMu.Unlock()
	if n := len(s.idle); n > 0 {
		scr := s.idle[n-1]
		s.idle = s.idle[:n-1]
		return scr
	}
	return new(Scratch)
}

// releaseScratch makes a worker scratch idle again.
func (s *Sampler) releaseScratch(scr *Scratch) {
	s.idleMu.Lock()
	s.idle = append(s.idle, scr)
	s.idleMu.Unlock()
}

func fitSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SampleOnce draws a single hardware sample (one anneal + readout), the mode
// HyQSAT uses: errors are absorbed by the CDCL loop instead of by repeated
// sampling.
func (s *Sampler) SampleOnce(ep *EmbeddedProblem) Sample {
	var out Sample
	s.SampleInto(ep, &out)
	return out
}

// SampleInto draws one sample like SampleOnce but reuses out's NodeValues
// map and the sampler's scratch buffers: in steady state (same-sized
// problem, reused out) it performs zero heap allocations.
func (s *Sampler) SampleInto(ep *EmbeddedProblem, out *Sample) {
	s.sampleWith(ep, s.Rng, &s.scratch, out)
}

// ReadSet is the outcome of one multi-read device access: every sample in
// read order plus the index of the best (lowest hardware energy) read, ties
// broken towards the earliest read.
type ReadSet struct {
	Samples []Sample
	Best    int
}

// BestSample returns the best-energy sample of the set.
func (rs *ReadSet) BestSample() Sample { return rs.Samples[rs.Best] }

// Sample draws numReads samples from one programmed problem: it is a
// one-member SampleBatch, so the reads fan across a worker pool bounded by
// Workers (default runtime.NumCPU()). Each read's RNG stream is derived from
// (sampler seed, call index, read index), so for a fixed seed the result is
// bit-identical at any worker count, and successive calls draw fresh
// randomness.
func (s *Sampler) Sample(ep *EmbeddedProblem, numReads int) ReadSet {
	return s.SampleBatch([]*EmbeddedProblem{ep}, []int{numReads})[0]
}

// sampleRead executes one read with its own deterministic RNG stream.
func (s *Sampler) sampleRead(ep *EmbeddedProblem, call int64, read int, scr *Scratch, out *Sample) {
	seed := readSeed(s.seed, call, read)
	if scr.rng == nil {
		scr.rng = rand.New(rand.NewSource(seed))
	} else {
		scr.rng.Seed(seed) // rebuilds exactly the state NewSource(seed) builds
	}
	s.sampleWith(ep, scr.rng, scr, out)
}

// readSeed mixes (seed, call, read) into a well-spread 63-bit stream seed
// using the splitmix64 finaliser.
func readSeed(seed, call int64, read int) int64 {
	x := uint64(seed)
	x = mix64(x + 0x9e3779b97f4a7c15*uint64(call+1))
	x = mix64(x + 0xbf58476d1ce4e5b9*uint64(read+1))
	return int64(x >> 1) // keep it non-negative for rand.NewSource symmetry
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// expCutoff is the βΔE above which a Metropolis move can only be accepted
// on a zero draw: rand.Float64 returns 0 or a value ≥ 2⁻⁶³, and
// math.Exp(-44) ≈ 7.8e-20 lies below 2⁻⁶³ ≈ 1.08e-19.
const expCutoff = 44

// expBand is the relative half-width of the band around accept's estimate
// of e^(−x) inside which the draw is compared with math.Exp itself.
const expBand = 1e-3

// accept is the Metropolis test u < math.Exp(-x) for a draw u of
// rand.Float64 and a move cost x = βΔE. It returns the same result for
// every such u and every x, but mostly without calling Exp:
//
//   - Past expCutoff a non-zero draw fails the test, and only a zero draw
//     reaches Exp.
//   - On [0, expCutoff], a = 2^(−k)·p(t), with k and t from x·log₂e = k + t/ln 2
//     and p the degree-5 Taylor polynomial of e^(−t) on [0, ln 2), bounds
//     e^(−x) from below within a relative 3.1e-4 (the series alternates, so
//     the truncation error is below t⁶/720 and e^(−t) ≥ ½), plus rounding
//     near 1e-14. math.Exp is within one ulp of e^(−x), so a draw below
//     a·(1−expBand) passes and one at or above a·(1+expBand) fails; only
//     draws in between reach Exp.
func accept(u, x float64) bool {
	if x > expCutoff {
		if u != 0 {
			return false
		}
	} else if x >= 0 {
		y := x * math.Log2E
		k := int(y)
		t := (y - float64(k)) * math.Ln2
		p := 1 - t*(1-t*(1.0/2-t*(1.0/6-t*(1.0/24-t*(1.0/120)))))
		a := p * math.Float64frombits(uint64(1023-k)<<52) // p·2^(−k), k ≤ 63
		if u < a*(1-expBand) {
			return true
		}
		if u >= a*(1+expBand) {
			return false
		}
	}
	return u < math.Exp(-x)
}

// sampleWith is the sweep kernel: one anneal + readout against ep using rng
// for every stochastic choice and scr for every buffer. It touches only
// read-only fields of ep and performs no steady-state allocations.
//
// The chain phase runs on the chain graph (chainGraph, built by fit when the
// scratch meets a new problem): each chain is one spin S_c with a kept
// field G_c = S_c·(its qubits' fields, plus its couplers to qubits in no
// chain, which stay +1 through the phase, plus Σ_d K_cd·S_d), so a move
// costs O(1) and an accepted flip O(chain degree). Reads are
// bit-identical to a plain sweep over the CSR rows with one math.Exp per
// Metropolis test (referenceSampleWith in the tests) whenever every sum
// either kernel forms is exact, as with dyadic coefficients and no
// programming noise. Otherwise the two sum the same terms in a different
// order, so a ΔE may differ in its last bits, and a move whose ΔE is 0 in
// one kernel may cost one draw in the other. accept skips only Exp calls
// whose outcome the draw already decides. Spins are ±1.0, so every product
// with a spin is exact.
func (s *Sampler) sampleWith(ep *EmbeddedProblem, rng *rand.Rand, scr *Scratch, out *Sample) {
	n := len(ep.Qubits)
	scr.fit(ep)
	h := ep.H
	j := ep.adjJ
	// Programming noise: perturb copies of the coefficients, one Gaussian
	// draw per field and per unordered coupler pair (both CSR directions of a
	// coupler receive the same perturbation).
	if s.Noise.CoefficientSigma > 0 {
		sigma := s.Noise.CoefficientSigma * ep.maxAbs
		h = scr.h
		copy(h, ep.H)
		for i := range h {
			h[i] += sigma * rng.NormFloat64()
		}
		for p := 0; p < ep.numPairs; p++ {
			scr.pairNoise[p] = sigma * rng.NormFloat64()
		}
		j = scr.j
		for k := range j {
			j[k] = ep.adjJ[k] + scr.pairNoise[ep.adjPair[k]]
		}
	}

	// Fold the read's coefficients onto the chain graph: each chain's field
	// from its qubits' fields and its couplers to qubits in no chain, each
	// coupling slot from its chain-crossing couplers.
	chainStart, chainNbr := scr.graph.start, scr.graph.nbr
	K, S, G := scr.chainK, scr.chainS, scr.chainG
	for c, ix := range ep.chainIx {
		f := 0.0
		for _, i := range ix {
			f += h[i]
		}
		G[c] = f
	}
	clear(K)
	for _, e := range scr.graph.fold {
		if e.to >= 0 {
			K[e.to] += j[e.k]
		} else {
			G[^e.to] += j[e.k]
		}
	}

	// Random initial state, chain-aligned: the device initialises in a
	// superposition and strong chain couplers keep chains coherent; a chain
	// starts as one logical spin.
	for c := range S {
		S[c] = 1
		if rng.Intn(2) == 0 {
			S[c] = -1
		}
	}
	// Each chain's spin enters its listeners' fields; then G_c = S_c·field.
	for c, sc := range S {
		for slot := chainStart[c]; slot < chainStart[c+1]; slot++ {
			G[chainNbr[slot]] += K[slot] * sc
		}
	}
	for c, sc := range S {
		G[c] *= sc
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
	for sweep := 0; sweep < sched.Sweeps; sweep++ {
		for c := range G {
			// ΔE of flipping the whole chain: internal couplers are
			// unchanged, only fields and chain-boundary couplers count.
			dE := -2 * G[c]
			if dE <= 0 || accept(rng.Float64(), beta*dE) {
				// Flipping S_c negates G_c and moves each listener's
				// field by 2·S_c·K (S_c the new sign).
				G[c] = -G[c]
				sc := -S[c]
				S[c] = sc
				for slot := chainStart[c]; slot < chainStart[c+1]; slot++ {
					d := chainNbr[slot]
					G[d] += 2 * sc * S[d] * K[slot]
				}
			}
		}
		beta *= ratio
	}
	// The chains' signs become the qubits' spins; qubits in no chain stay +1.
	spins := scr.spins
	for i := range spins {
		spins[i] = 1
	}
	for c, ix := range ep.chainIx {
		for _, i := range ix {
			spins[i] = S[c]
		}
	}
	// Single-qubit relaxation at final β.
	qubitSweeps := sched.Sweeps / 16
	if qubitSweeps < 2 {
		qubitSweeps = 2
	}
	adjStart, adjOther := ep.adjStart, ep.adjOther
	for sweep := 0; sweep < qubitSweeps; sweep++ {
		for i := 0; i < n; i++ {
			local := h[i]
			for k := adjStart[i]; k < adjStart[i+1]; k++ {
				local += j[k] * spins[adjOther[k]]
			}
			dE := -2 * spins[i] * local
			if dE <= 0 || accept(rng.Float64(), sched.BetaMax*dE) {
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
		energy += ep.H[i] * spins[i]
		for k := adjStart[i]; k < adjStart[i+1]; k++ {
			if o := int(adjOther[k]); o > i {
				energy += ep.adjJ[k] * spins[i] * spins[o]
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
