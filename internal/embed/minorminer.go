package embed

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"time"

	"hyqsat/internal/topo"
)

// Minorminer is a from-scratch reimplementation of the Cai–Macready–Roy
// heuristic used by D-Wave's minorminer library: each problem node is
// iteratively (re)placed as a chain built from weighted-shortest paths to
// its neighbours' chains, where a qubit's weight grows exponentially with
// the number of chains occupying it; rounds continue until chains are
// vertex-disjoint or the round/time budget runs out.
//
// Its polynomial per-round routing cost is precisely the behaviour Fig 13
// contrasts with the paper's linear-time scheme.
type Minorminer struct {
	Seed      int64
	MaxRounds int           // improvement rounds before giving up (default 16)
	Timeout   time.Duration // wall-clock budget (default none)
}

// ErrEmbeddingFailed is returned when an embedder exhausts its budget
// without producing a valid embedding.
var ErrEmbeddingFailed = errors.New("embed: no valid embedding found within budget")

// ErrTimeout is returned when an embedder exceeds its wall-clock budget.
var ErrTimeout = errors.New("embed: timeout")

// Embed finds chains for every node of p in g, or fails.
func (m *Minorminer) Embed(p *Problem, g *topo.Chimera) (*Embedding, error) {
	rounds := m.MaxRounds
	if rounds == 0 {
		rounds = 16
	}
	var deadline time.Time
	if m.Timeout > 0 {
		deadline = time.Now().Add(m.Timeout)
	}
	rng := rand.New(rand.NewSource(m.Seed))

	adj := make([][]int, p.NumNodes)
	for _, e := range p.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}

	nq := g.NumQubits()
	usage := make([]int, nq) // number of chains occupying each qubit
	chains := make([][]int, p.NumNodes)

	order := rng.Perm(p.NumNodes)
	penaltyBase := 8.0

	addChain := func(n int, chain []int) {
		chains[n] = chain
		for _, q := range chain {
			usage[q]++
		}
	}
	ripChain := func(n int) {
		for _, q := range chains[n] {
			usage[q]--
		}
		chains[n] = nil
	}

	for round := 0; round < rounds; round++ {
		if round > 0 {
			// Repair rounds: tear up only the chains involved in overlaps —
			// and, periodically, the chains walling in the contested qubits —
			// then re-place them.
			ripSet := map[int]bool{}
			qubitOwners := make(map[int][]int)
			for n, c := range chains {
				for _, q := range c {
					qubitOwners[q] = append(qubitOwners[q], n)
				}
			}
			for q, owners := range qubitOwners {
				if len(owners) <= 1 {
					continue
				}
				for _, n := range owners {
					ripSet[n] = true
				}
				if round%2 == 0 {
					// Dissolve the wall: also rip chains hardware-adjacent
					// to the contested qubit.
					for _, nb := range g.Neighbors(q) {
						for _, n := range qubitOwners[nb] {
							ripSet[n] = true
						}
					}
				}
			}
			order = order[:0]
			for n := range ripSet {
				order = append(order, n)
			}
			sort.Ints(order)
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		for _, u := range order {
			if chains[u] != nil {
				ripChain(u)
			}
		}
		for _, u := range order {
			if !deadline.IsZero() && time.Now().After(deadline) {
				return nil, ErrTimeout
			}
			// Prefer a strictly collision-free placement; fall back to the
			// penalty-weighted placement that tolerates (and later repairs)
			// overlaps.
			chain := m.placeNode(g, u, adj[u], chains, usage, rng, penaltyBase, true)
			if chain == nil {
				chain = m.placeNode(g, u, adj[u], chains, usage, rng, penaltyBase, false)
			}
			if chain == nil {
				return nil, ErrEmbeddingFailed
			}
			addChain(u, chain)
		}
		// Success when every qubit hosts at most one chain.
		ok := true
		for _, c := range usage {
			if c > 1 {
				ok = false
			}
		}
		// Escalate congestion penalties (the CMR repair schedule).
		if penaltyBase < 1e6 {
			penaltyBase *= 2
		}
		if ok {
			emb := NewEmbedding()
			for n, c := range chains {
				emb.Chains[n] = append([]int(nil), c...)
			}
			return emb, nil
		}
	}
	return nil, ErrEmbeddingFailed
}

// qubitWeight implements the CMR exponential congestion penalty; the base
// escalates round over round, which is what eventually forces chains apart.
func qubitWeight(usage int, base float64) float64 {
	return math.Pow(base, float64(usage))
}

// placeNode builds a chain for node u: weighted-Dijkstra distance fields are
// grown from each embedded neighbour's chain; the qubit minimising the total
// connection cost becomes the chain root, and the shortest paths to every
// neighbour chain form the chain.
func (m *Minorminer) placeNode(g *topo.Chimera, u int, neighbors []int,
	chains [][]int, usage []int, rng *rand.Rand, penaltyBase float64, hard bool) []int {

	nq := g.NumQubits()
	var embedded [][]int
	for _, v := range neighbors {
		if chains[v] != nil {
			embedded = append(embedded, chains[v])
		}
	}
	if len(embedded) == 0 {
		// Isolated (for now) node: take the least-used working qubit.
		best, bestW := -1, math.Inf(1)
		start := rng.Intn(nq)
		for i := 0; i < nq; i++ {
			q := (start + i) % nq
			if g.IsBroken(q) {
				continue
			}
			if w := qubitWeight(usage[q], penaltyBase); w < bestW {
				best, bestW = q, w
			}
		}
		if best < 0 {
			return nil
		}
		return []int{best}
	}

	dists := make([][]float64, len(embedded))
	parents := make([][]int, len(embedded))
	total := make([]float64, nq)
	reachableByAll := make([]int, nq)
	for i, chain := range embedded {
		dist, parent := dijkstraFromChain(g, chain, usage, penaltyBase, hard)
		dists[i] = dist
		parents[i] = parent
		for q := 0; q < nq; q++ {
			if !math.IsInf(dist[q], 1) {
				total[q] += dist[q]
				reachableByAll[q]++
			}
		}
	}
	root, bestCost := -1, math.Inf(1)
	for q := 0; q < nq; q++ {
		if g.IsBroken(q) || reachableByAll[q] < len(embedded) {
			continue
		}
		if hard && usage[q] > 0 {
			continue
		}
		// Cost of rooting the chain at q: q's own weight once, plus the cost
		// of each path excluding q itself (dist includes q's weight for
		// qubits outside the source chain, and is 0 inside it).
		w := qubitWeight(usage[q], penaltyBase)
		cost := w
		for i := range embedded {
			if d := dists[i][q]; d > 0 {
				cost += d - w
			}
		}
		// Small random jitter breaks the symmetric fixed points a purely
		// deterministic greedy gets stuck in.
		cost *= 1 + 0.05*rng.Float64()
		if cost < bestCost {
			root, bestCost = q, cost
		}
	}
	if root < 0 {
		return nil
	}
	inChain := map[int]bool{root: true}
	for i := range embedded {
		// Walk the path from the root back towards the neighbour's chain,
		// stopping before entering it (distance 0 marks chain membership).
		q := root
		for q >= 0 && dists[i][q] > 0 {
			inChain[q] = true
			q = parents[i][q]
		}
	}
	chain := make([]int, 0, len(inChain))
	for q := range inChain {
		chain = append(chain, q)
	}
	// Sorted, so the next Dijkstra seeds its heap in the same order on every
	// run and same-seed runs stay identical.
	slices.Sort(chain)
	return chain
}

// dijkstraFromChain computes, for every qubit, the cheapest total qubit
// weight of a path from the given chain to (and including) that qubit.
// Parent pointers trace back towards the chain; chain members have
// parent -1 and distance 0.
func dijkstraFromChain(g *topo.Chimera, chain []int, usage []int, penaltyBase float64, hard bool) (dist []float64, parent []int) {
	nq := g.NumQubits()
	dist = make([]float64, nq)
	parent = make([]int, nq)
	for q := range dist {
		dist[q] = math.Inf(1)
		parent[q] = -1
	}
	pq := &floatHeap{}
	for _, q := range chain {
		dist[q] = 0
		pq.push(heapItem{q, 0})
	}
	for pq.len() > 0 {
		it := pq.pop()
		if it.cost > dist[it.q] {
			continue
		}
		for _, n := range g.Neighbors(it.q) {
			if hard && usage[n] > 0 && dist[n] != 0 {
				continue // collision-free mode: only free qubits are routable
			}
			nd := it.cost + qubitWeight(usage[n], penaltyBase)
			if nd < dist[n] {
				dist[n] = nd
				parent[n] = it.q
				pq.push(heapItem{n, nd})
			}
		}
	}
	// Chain members keep parent -1 so path reconstruction stops there.
	for _, q := range chain {
		parent[q] = -1
	}
	return dist, parent
}

type heapItem struct {
	q    int
	cost float64
}

// floatHeap is a minimal binary min-heap on path cost.
type floatHeap struct{ items []heapItem }

func (h *floatHeap) len() int { return len(h.items) }

func (h *floatHeap) push(it heapItem) {
	h.items = append(h.items, it)
	i := len(h.items) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].cost <= h.items[i].cost {
			break
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *floatHeap) pop() heapItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.items) && h.items[l].cost < h.items[small].cost {
			small = l
		}
		if r < len(h.items) && h.items[r].cost < h.items[small].cost {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}
