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
// read-only structures EmbedIsing precomputes on EmbeddedProblem. Its chain
// phase runs on the problem's chain graph, which each worker's Scratch
// derives once per problem, with one incrementally kept field per chain,
// and its Metropolis test calls math.Exp only when the draw does not
// already decide the outcome. Reads are bit-identical to a plain sweep over
// the CSR rows whenever every sum is exact, and agree in distribution
// otherwise.
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
// conventional value stands.
func ChainStrengthFor(is *qubo.Ising) float64 {
	max := 0.0
	for _, h := range is.H {
		if v := math.Abs(h); v > max {
			max = v
		}
	}
	for _, t := range is.J {
		if v := math.Abs(t.C); v > max {
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
//
// The working storage comes from sc and is kept there for the next call, so
// a caller that programs many problems allocates little beyond the result.
func (sc *EmbedScratch) EmbedIsing(is *qubo.Ising, emb *embed.Embedding, g topo.Topology, chainStrength float64) *EmbeddedProblem {
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

	// Dense qubit → active-index, qubit → node and node → chain indexes
	// replace per-chain and per-edge membership sets.
	qubitIx := filled(sc.qubitIx, g.NumQubits(), -1)
	owners := embed.QubitOwners(filled(sc.owners, g.NumQubits(), -1))
	chainAt := filled(sc.chainAt, 1, -1)
	if len(nodes) > 0 {
		chainAt = filled(sc.chainAt, nodes[len(nodes)-1]+1, -1)
	}
	sc.qubitIx, sc.owners, sc.chainAt = qubitIx, owners, chainAt
	ep.Qubits = make([]int, 0, total)
	for ci, node := range nodes {
		chain := emb.Chains[node]
		for _, q := range chain {
			if qubitIx[q] < 0 {
				qubitIx[q] = int32(len(ep.Qubits))
				ep.Qubits = append(ep.Qubits, q)
			}
		}
		owners.Claim(node, chain)
		chainAt[node] = int32(ci)
	}
	n := len(ep.Qubits)
	ep.H = make([]float64, n)
	couplers := sc.couplers[:0]
	// One neighbour scan per chain: its ferromagnetic chain couplers are
	// emitted at once (chain order, then neighbour order, as
	// QubitOwners.IntraChainCouplers lists them), and its couplers to
	// higher-numbered chains are kept, in the same order, for the logical
	// couplings below.
	links := sc.links[:0]
	linksAt := append(sc.linksAt[:0], 0)
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
		if node < len(is.H) && is.H[node] != 0 && len(chain) > 0 {
			per := is.H[node] / float64(len(chain))
			for _, i := range ix {
				ep.H[i] += per
			}
		}
		for _, q := range chain {
			for _, nb := range g.Neighbors(q) {
				switch o := int(owners[nb]); {
				case o == node && q < nb:
					couplers = append(couplers, coupler{qubitIx[q], qubitIx[nb], -chainStrength})
				case o > node:
					links = append(links, link{int32(o), qubitIx[min(q, nb)], qubitIx[max(q, nb)]})
				}
			}
		}
		linksAt = append(linksAt, int32(len(links)))
	}
	// Logical couplings in ascending edge order, each split evenly across
	// the couplers between its two chains — the chain-U links naming V, in
	// order (QubitOwners.InterChainCouplers).
	for _, t := range is.J {
		u, v := t.Edge.U, t.Edge.V
		if u >= len(chainAt) || v >= len(chainAt) || chainAt[u] < 0 || chainAt[v] < 0 {
			continue
		}
		cu := chainAt[u]
		first := len(couplers)
		for _, l := range links[linksAt[cu]:linksAt[cu+1]] {
			if int(l.node) == v {
				couplers = append(couplers, coupler{l.a, l.b, 0})
			}
		}
		if len(couplers) == first {
			panic("anneal: logical coupling with no hardware coupler; embedding invalid")
		}
		j := t.C / float64(len(couplers)-first)
		for k := first; k < len(couplers); k++ {
			couplers[k].j = j
		}
	}
	ep.finalize(couplers)
	sc.couplers, sc.links, sc.linksAt = couplers, links, linksAt
	return ep
}

// link is a hardware coupler from a chain to the chain of node, as
// active-qubit indices in ascending qubit order.
type link struct {
	node int32
	a, b int32
}

// EmbedScratch is EmbedIsing's working storage, kept by the caller for reuse
// the way embed.FastScratch is; none of it is referenced by a returned
// problem. The zero value is ready to use. An EmbedScratch must not be used
// by two goroutines at once.
type EmbedScratch struct {
	qubitIx, owners, chainAt []int32
	couplers                 []coupler
	links                    []link
	linksAt                  []int32
}

// filled returns buf resized to n entries of v, reusing its storage.
func filled(buf []int32, n int, v int32) []int32 {
	buf = slices.Grow(buf[:0], n)[:n]
	for i := range buf {
		buf[i] = v
	}
	return buf
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
	// Each coupler's two entries; until its pair id is assigned below, an
	// entry's adjPair holds the index of its mirror entry.
	cursor := make([]int32, n)
	copy(cursor, ep.adjStart[:n])
	for _, c := range couplers {
		ka := cursor[c.a]
		cursor[c.a]++
		kb := cursor[c.b]
		cursor[c.b]++
		ep.adjOther[ka], ep.adjJ[ka], ep.adjPair[ka] = c.b, c.j, kb
		ep.adjOther[kb], ep.adjJ[kb], ep.adjPair[kb] = c.a, c.j, ka
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
				id = ep.adjPair[ep.adjPair[k]]
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
