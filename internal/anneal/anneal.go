// Package anneal is the quantum-annealer substitute of this reproduction:
// a simulated-annealing Ising sampler that executes on the *embedded*
// hardware graph, exactly as the paper's own noise-free simulator (built on
// D-Wave's neal sampler) does. Logical problems are mapped onto qubit chains
// (ferromagnetic intra-chain couplers, h and J split across chain qubits and
// inter-chain couplers), samples are drawn with Metropolis sweeps under a
// geometric β schedule, chains are read back by majority vote, and an
// optional noise model reproduces the error processes of real hardware:
// Gaussian programming error on coefficients, per-qubit readout flips, and
// truncated schedules that get trapped in local minima.
//
// Sampling is batched the way the real device is used: Sampler.Sample draws
// many reads from one programmed problem across a worker pool, with each
// read's RNG stream derived from (seed, call, read) so results are
// bit-identical regardless of worker count. The sweep kernel itself
// (SampleInto) runs allocation-free in steady state against the flattened,
// read-only structures EmbedIsing precomputes on EmbeddedProblem.
//
// Wall-clock device time is *modelled*, not measured: TimingModel charges
// the D-Wave 2000Q datasheet costs per sample, which is how the paper
// composes its end-to-end numbers too.
package anneal

import (
	"math"
	"slices"

	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// Noise configures the hardware error model.
type Noise struct {
	// CoefficientSigma is the standard deviation of the Gaussian programming
	// error applied to every h and J, relative to the largest coefficient
	// magnitude. D-Wave 2000Q integrated control errors are a few percent.
	CoefficientSigma float64
	// ReadoutFlipProb is the probability that a qubit's measured value is
	// flipped at readout.
	ReadoutFlipProb float64
}

// NoNoise is the noise-free simulator configuration.
var NoNoise = Noise{}

// DWave2000QNoise approximates the error magnitudes of the real device.
var DWave2000QNoise = Noise{CoefficientSigma: 0.03, ReadoutFlipProb: 0.01}

// Schedule is the annealing schedule: Sweeps full Metropolis passes with
// inverse temperature rising geometrically from BetaMin to BetaMax.
type Schedule struct {
	Sweeps  int
	BetaMin float64
	BetaMax float64
}

// DefaultSchedule mirrors the neal sampler defaults at a sweep count that
// behaves like a fast hardware anneal.
func DefaultSchedule() Schedule { return Schedule{Sweeps: 64, BetaMin: 0.1, BetaMax: 32} }

// LongSchedule is the "long timeout" schedule the paper uses for its
// noise-free simulator, converging far more reliably.
func LongSchedule() Schedule { return Schedule{Sweeps: 512, BetaMin: 0.05, BetaMax: 64} }

// EmbeddedProblem is a logical Ising model programmed onto hardware qubits
// through an embedding: per-qubit fields, per-coupler strengths, and the
// chain structure needed to read results back. After EmbedIsing returns,
// every field is read-only — one EmbeddedProblem may be sampled from many
// goroutines concurrently.
type EmbeddedProblem struct {
	Graph     topo.Topology
	Embedding *embed.Embedding

	Qubits []int     // the active qubits, in a fixed order
	H      []float64 // field per active qubit (indexed as Qubits)
	nodeOf []int     // active-qubit index → logical node
	offset float64   // constant term of the logical Ising model

	// Flattened structures precomputed once so the sweep kernel neither
	// allocates nor sorts: CSR adjacency with a symmetric-pair index for the
	// programming-noise model, chain lists in sorted-node order, and the
	// largest coefficient magnitude (the noise scale).
	adjStart   []int32   // CSR row offsets, len(Qubits)+1
	adjOther   []int32   // neighbour active-qubit index per entry
	adjJ       []float64 // coupler strength per entry
	adjPair    []int32   // unordered-pair id per entry (both directions share one)
	numPairs   int
	maxAbs     float64 // max |coefficient| over H and couplers
	chainNodes []int   // logical nodes, sorted
	chainIx    [][]int // chain qubit-index lists, aligned with chainNodes

	// Chain shape, precomputed for the QA-quality telemetry (chain length
	// drives annealer error, so break rates are bucketed by it).
	maxChainLen int // longest chain, in qubits
	chainQubits int // total qubits held in chains
}

type coupling struct {
	other int // active-qubit index
	j     float64
}

// coupler is one programmed coupler between two active qubits, in the order
// EmbedIsing emits them.
type coupler struct {
	a, b int32 // active-qubit indices
	j    float64
}

// ChainStrengthFor returns a reasonable ferromagnetic chain coupling for a
// logical Ising model: 1.25× the largest coefficient magnitude, the usual
// rule of thumb for D-Wave embeddings. Isolated sampling slightly favours
// weaker chains (bench.AblationChainStrength: majority vote repairs breaks),
// but end-to-end hybrid guidance measures better with intact chains, so the
// conventional value stands; hyqsat.Options.ChainStrengthMult overrides it.
func ChainStrengthFor(is *qubo.Ising) float64 {
	max := 0.0
	for _, h := range is.H {
		if v := math.Abs(h); v > max {
			max = v
		}
	}
	for _, j := range is.J {
		if v := math.Abs(j); v > max {
			max = v
		}
	}
	if max == 0 {
		return 1
	}
	return 1.25 * max
}

// EmbedIsing programs a logical Ising model onto hardware through an
// embedding: each node's field is split across its chain, each logical
// coupling is split across the couplers available between the two chains,
// and chain qubits are bound with a ferromagnetic coupling of the given
// strength. Logical nodes must be present in the embedding; couplings whose
// endpoints both embedded must be realised by at least one coupler. Chains
// must be disjoint, as in any valid embedding.
func EmbedIsing(is *qubo.Ising, emb *embed.Embedding, g topo.Topology, chainStrength float64) *EmbeddedProblem {
	ep := &EmbeddedProblem{
		Graph:     g,
		Embedding: emb,
		offset:    is.Offset,
	}
	nodes := make([]int, 0, len(emb.Chains))
	total := 0
	for node, chain := range emb.Chains {
		nodes = append(nodes, node)
		total += len(chain)
	}
	slices.Sort(nodes)

	// Dense qubit → active-index and qubit → node indexes replace per-chain
	// and per-edge membership sets.
	qubitIx := make([]int32, g.NumQubits())
	for i := range qubitIx {
		qubitIx[i] = -1
	}
	owners := embed.NewQubitOwners(g.NumQubits())
	ep.Qubits = make([]int, 0, total)
	ep.nodeOf = make([]int, 0, total)
	for _, node := range nodes {
		chain := emb.Chains[node]
		for _, q := range chain {
			if qubitIx[q] < 0 {
				qubitIx[q] = int32(len(ep.Qubits))
				ep.Qubits = append(ep.Qubits, q)
				ep.nodeOf = append(ep.nodeOf, node)
			}
		}
		owners.Claim(node, chain)
	}
	n := len(ep.Qubits)
	ep.H = make([]float64, n)
	var couplers []coupler
	var scratch []topo.Edge
	addCouplers := func(es []topo.Edge, j float64) {
		for _, c := range es {
			couplers = append(couplers, coupler{qubitIx[c.A], qubitIx[c.B], j})
		}
	}
	ep.chainNodes = nodes
	ep.chainIx = make([][]int, len(nodes))
	ixs := make([]int, total)
	for ci, node := range nodes {
		chain := emb.Chains[node]
		ix := ixs[:len(chain):len(chain)]
		ixs = ixs[len(chain):]
		for i, q := range chain {
			ix[i] = int(qubitIx[q])
		}
		ep.chainIx[ci] = ix
		if h, ok := is.H[node]; ok && len(chain) > 0 {
			per := h / float64(len(chain))
			for _, i := range ix {
				ep.H[i] += per
			}
		}
		// Ferromagnetic chain couplers.
		scratch = owners.IntraChainCouplers(scratch[:0], g, node, chain)
		addCouplers(scratch, -chainStrength)
	}
	jEdges := make([]qubo.Edge, 0, len(is.J))
	for e := range is.J {
		jEdges = append(jEdges, e)
	}
	slices.SortFunc(jEdges, qubo.CompareEdges)
	for _, e := range jEdges {
		chainU, okU := emb.Chains[e.U]
		_, okV := emb.Chains[e.V]
		if !okU || !okV {
			continue
		}
		scratch = owners.InterChainCouplers(scratch[:0], g, chainU, e.V)
		if len(scratch) == 0 {
			panic("anneal: logical coupling with no hardware coupler; embedding invalid")
		}
		addCouplers(scratch, is.J[e]/float64(len(scratch)))
	}
	ep.finalize(couplers)
	return ep
}

// finalize lays the coupler list out in the read-only CSR form the sweep
// kernel runs on (each active qubit's entries in coupler order), assigns
// every unordered qubit pair a stable id (so programming noise perturbs both
// directions of a coupler identically), and precomputes the coefficient
// scale and chain shape that SampleOnce used to rescan on every call.
func (ep *EmbeddedProblem) finalize(couplers []coupler) {
	n := len(ep.Qubits)
	total := 2 * len(couplers)
	ep.adjStart = make([]int32, n+1)
	ep.adjOther = make([]int32, total)
	ep.adjJ = make([]float64, total)
	ep.adjPair = make([]int32, total)
	for _, c := range couplers {
		ep.adjStart[c.a+1]++
		ep.adjStart[c.b+1]++
	}
	for i := 0; i < n; i++ {
		ep.adjStart[i+1] += ep.adjStart[i]
	}
	cursor := make([]int32, n)
	copy(cursor, ep.adjStart[:n])
	put := func(row, other int32, j float64) {
		k := cursor[row]
		cursor[row]++
		ep.adjOther[k] = other
		ep.adjJ[k] = j
	}
	for _, c := range couplers {
		put(c.a, c.b, c.j)
		put(c.b, c.a, c.j)
	}

	// Pair ids in order of first appearance, scanning rows in ascending
	// order: a pair {i,o} first appears in row min(i,o), so an entry with
	// o < i takes the id its mirror entry got in row o, and an entry with
	// o ≥ i takes a fresh id unless an earlier entry of its row already
	// named the same qubit.
	numPairs := int32(0)
	for i := int32(0); i < int32(n); i++ {
		row := ep.adjStart[i]
		for k := row; k < ep.adjStart[i+1]; k++ {
			o := ep.adjOther[k]
			var id int32 = -1
			if o < i {
				for m := ep.adjStart[o]; m < ep.adjStart[o+1]; m++ {
					if ep.adjOther[m] == i {
						id = ep.adjPair[m]
						break
					}
				}
			} else {
				for m := row; m < k; m++ {
					if ep.adjOther[m] == o {
						id = ep.adjPair[m]
						break
					}
				}
			}
			if id < 0 {
				id = numPairs
				numPairs++
			}
			ep.adjPair[k] = id
		}
	}
	ep.numPairs = int(numPairs)

	ep.maxAbs = 0
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

	ep.maxChainLen, ep.chainQubits = 0, 0
	for _, ix := range ep.chainIx {
		ep.chainQubits += len(ix)
		if len(ix) > ep.maxChainLen {
			ep.maxChainLen = len(ix)
		}
	}
}

// NumActiveQubits returns the number of qubits carrying the problem.
func (ep *EmbeddedProblem) NumActiveQubits() int { return len(ep.Qubits) }

// Sample is the result of one hardware sample: raw qubit spins, the
// majority-voted logical values, how many chains were broken, and the raw
// hardware energy.
type Sample struct {
	NodeValues     map[int]bool // logical node → value (x = spin up)
	BrokenChains   int
	HardwareEnergy float64 // Ising energy of the raw spins, incl. chain terms
}

// SampleLogical anneals a logical Ising model directly (no embedding): the
// idealised noise-free simulator over the problem graph. numNodes bounds the
// node index space.
func (s *Sampler) SampleLogical(is *qubo.Ising, numNodes int) map[int]bool {
	// Build dense adjacency.
	h := make([]float64, numNodes)
	for i, v := range is.H {
		h[i] = v
	}
	adj := make([][]coupling, numNodes)
	for e, j := range is.J {
		adj[e.U] = append(adj[e.U], coupling{e.V, j})
		adj[e.V] = append(adj[e.V], coupling{e.U, j})
	}
	spins := make([]int8, numNodes)
	for i := range spins {
		if s.Rng.Intn(2) == 0 {
			spins[i] = 1
		} else {
			spins[i] = -1
		}
	}
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
		for i := 0; i < numNodes; i++ {
			local := h[i]
			for _, c := range adj[i] {
				local += c.j * float64(spins[c.other])
			}
			dE := -2 * float64(spins[i]) * local
			if dE <= 0 || s.Rng.Float64() < math.Exp(-beta*dE) {
				spins[i] = -spins[i]
			}
		}
		beta *= ratio
	}
	out := make(map[int]bool, numNodes)
	for i, sp := range spins {
		out[i] = sp > 0
	}
	return out
}
