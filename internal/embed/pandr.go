package embed

import (
	"math/rand"
	"sort"
	"time"

	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// PandR is a place-and-route embedder in the style of Bian et al. [8]:
// problem nodes are first placed into Chimera cells by simulated annealing
// over total Manhattan wirelength, then every problem edge is routed through
// free qubits with breadth-first search. Placement cost dominates, which is
// why this scheme times out earliest in the Fig 13 comparison.
type PandR struct {
	Seed         int64
	SAIterations int           // placement annealing iterations (default 200·nodes)
	Timeout      time.Duration // wall-clock budget (default none)
}

// Embed places and routes problem pr into g, or fails.
func (p *PandR) Embed(pr *Problem, g *topo.Chimera) (*Embedding, error) {
	var deadline time.Time
	if p.Timeout > 0 {
		deadline = time.Now().Add(p.Timeout)
	}
	rng := rand.New(rand.NewSource(p.Seed))

	cells := g.M * g.N
	// One node per cell: the remaining six qubits of a seeded cell stay
	// free for routing, and the node capacity (M·N cells) matches the
	// published scheme's observed ceiling of roughly 120 clauses on a
	// 16×16 Chimera.
	capacity := 1
	if pr.NumNodes > cells*capacity {
		return nil, ErrEmbeddingFailed
	}

	// --- Placement ---
	cellOf := make([]int, pr.NumNodes)
	occupancy := make([]int, cells)
	for n := 0; n < pr.NumNodes; n++ {
		// Spread initial placement across the grid.
		cellOf[n] = (n * 7) % cells
		for occupancy[cellOf[n]] >= capacity {
			cellOf[n] = (cellOf[n] + 1) % cells
		}
		occupancy[cellOf[n]]++
	}
	manhattan := func(a, b int) int {
		ra, ca := a/g.N, a%g.N
		rb, cb := b/g.N, b%g.N
		dr, dc := ra-rb, ca-cb
		if dr < 0 {
			dr = -dr
		}
		if dc < 0 {
			dc = -dc
		}
		return dr + dc
	}
	adj := make([][]int, pr.NumNodes)
	for _, e := range pr.Edges {
		adj[e.U] = append(adj[e.U], e.V)
		adj[e.V] = append(adj[e.V], e.U)
	}
	nodeCost := func(n, cell int) int {
		c := 0
		for _, v := range adj[n] {
			c += manhattan(cell, cellOf[v])
		}
		return c
	}
	iters := p.SAIterations
	if iters == 0 {
		iters = 200 * pr.NumNodes
	}
	temp := float64(g.M + g.N)
	cool := 1.0
	if iters > 0 {
		cool = 1.0 / float64(iters)
	}
	for it := 0; it < iters; it++ {
		if it%256 == 0 && !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrTimeout
		}
		n := rng.Intn(pr.NumNodes)
		target := rng.Intn(cells)
		if target == cellOf[n] || occupancy[target] >= capacity {
			continue
		}
		delta := nodeCost(n, target) - nodeCost(n, cellOf[n])
		if delta <= 0 || rng.Float64() < fastExp(-float64(delta)/temp) {
			occupancy[cellOf[n]]--
			occupancy[target]++
			cellOf[n] = target
		}
		temp = temp * (1 - cool)
		if temp < 0.01 {
			temp = 0.01
		}
	}

	// Greedy refinement: move each node to its best available cell until no
	// move improves the wirelength (bounded number of passes).
	for pass := 0; pass < 20; pass++ {
		improved := false
		for n := 0; n < pr.NumNodes; n++ {
			cur := nodeCost(n, cellOf[n])
			best, bestCost := cellOf[n], cur
			for cell := 0; cell < cells; cell++ {
				if cell != cellOf[n] && occupancy[cell] < capacity {
					if c := nodeCost(n, cell); c < bestCost {
						best, bestCost = cell, c
					}
				}
			}
			if best != cellOf[n] {
				occupancy[cellOf[n]]--
				occupancy[best]++
				cellOf[n] = best
				improved = true
			}
		}
		if !improved {
			break
		}
	}

	// --- Chain seeding: one vertical+horizontal qubit pair per node ---
	used := make([]bool, g.NumQubits())
	cellLoad := make([]int, cells)
	chains := make([][]int, pr.NumNodes)
	slotUsed := make(map[int]int, cells) // cell → slots taken
	for n := 0; n < pr.NumNodes; n++ {
		cell := cellOf[n]
		r, c := cell/g.N, cell%g.N
		k := slotUsed[cell]
		slotUsed[cell]++
		vq := g.Qubit(r, c, false, k)
		hq := g.Qubit(r, c, true, k)
		if used[vq] || used[hq] || g.IsBroken(vq) || g.IsBroken(hq) {
			return nil, ErrEmbeddingFailed
		}
		used[vq], used[hq] = true, true
		cellLoad[cell] += 2
		chains[n] = []int{vq, hq}
	}

	// --- Routing with rip-up and reroute: edges are routed longest
	// placement first; when an edge cannot be routed, the routes walling in
	// its endpoints are torn up and requeued. ---
	edges := append([]qubo.Edge(nil), pr.Edges...)
	sort.Slice(edges, func(i, j int) bool {
		di := manhattan(cellOf[edges[i].U], cellOf[edges[i].V])
		dj := manhattan(cellOf[edges[j].U], cellOf[edges[j].V])
		if di != dj {
			return di > dj
		}
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})

	routes := make([][]int, len(edges)) // per edge: qubits its route claimed
	qubitRoute := make([]int, g.NumQubits())
	for i := range qubitRoute {
		qubitRoute[i] = -1
	}
	queue := make([]int, len(edges))
	for i := range queue {
		queue[i] = i
	}
	ripBudget := 6 * len(edges)
	cellOfQubit := func(q int) int {
		r, c, _, _ := g.Coords(q)
		return r*g.N + c
	}
	ripRoute := func(ei, ownerNode int) {
		for _, q := range routes[ei] {
			used[q] = false
			qubitRoute[q] = -1
			cellLoad[cellOfQubit(q)]--
		}
		// Remove the route qubits from the owner's chain.
		drop := map[int]bool{}
		for _, q := range routes[ei] {
			drop[q] = true
		}
		kept := chains[ownerNode][:0]
		for _, q := range chains[ownerNode] {
			if !drop[q] {
				kept = append(kept, q)
			}
		}
		chains[ownerNode] = kept
		routes[ei] = nil
	}
	routeOwner := make([]int, len(edges)) // node whose chain holds each route
	for head := 0; head < len(queue); head++ {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil, ErrTimeout
		}
		ei := queue[head]
		e := edges[ei]
		path := p.route(g, e.U, e.V, chains, used, cellLoad)
		if path != nil {
			routes[ei] = append(routes[ei], path...)
			routeOwner[ei] = e.U
			for _, q := range path {
				qubitRoute[q] = ei
			}
			continue
		}
		// Blocked: rip the routes occupying the perimeter of both endpoint
		// chains and requeue them together with this edge.
		if ripBudget <= 0 {
			return nil, ErrEmbeddingFailed
		}
		ripped := map[int]bool{}
		for _, node := range []int{e.U, e.V} {
			for _, q := range chains[node] {
				for _, n := range g.Neighbors(q) {
					if r := qubitRoute[n]; r >= 0 && !ripped[r] {
						ripped[r] = true
					}
				}
			}
		}
		if len(ripped) == 0 {
			return nil, ErrEmbeddingFailed // walled by seeds, not routes
		}
		var rippedList []int
		for r := range ripped {
			rippedList = append(rippedList, r)
		}
		sort.Ints(rippedList)
		for _, r := range rippedList {
			ripRoute(r, routeOwner[r])
			queue = append(queue, r)
			ripBudget--
		}
		queue = append(queue, ei)
		if len(queue) > 100*len(edges) {
			return nil, ErrEmbeddingFailed
		}
	}

	// Ripping a route can sever an edge that was only realised through it;
	// re-route anything left unrealised.
	for pass := 0; pass < 3; pass++ {
		missing := false
		for _, e := range edges {
			if !chainsCoupled(g, chains[e.U], chains[e.V]) {
				if p.route(g, e.U, e.V, chains, used, cellLoad) == nil {
					return nil, ErrEmbeddingFailed
				}
				missing = true
			}
		}
		if !missing {
			break
		}
	}

	emb := NewEmbedding()
	for n, c := range chains {
		emb.Chains[n] = c
	}
	return emb, nil
}

// route connects chain(u) to chain(v) through free qubits, assigning the
// path to u's chain. Paths prefer uncrowded cells (congestion-aware
// Dijkstra) so that routed snakes do not wall in later edges.
// It returns the newly claimed qubits (empty when the chains were already
// adjacent), or nil when no path exists.
func (p *PandR) route(g *topo.Chimera, u, v int, chains [][]int, used []bool, cellLoad []int) []int {
	inV := map[int]bool{}
	for _, q := range chains[v] {
		inV[q] = true
	}
	// Already adjacent?
	for _, q := range chains[u] {
		for _, n := range g.Neighbors(q) {
			if inV[n] {
				return []int{}
			}
		}
	}
	cellOfQubit := func(q int) int {
		r, c, _, _ := g.Coords(q)
		return r*g.N + c
	}
	qubitCost := func(q int) float64 {
		// Steeply penalise nearly-full cells: consuming a cell's last free
		// qubits walls in the chains seeded there.
		load := cellLoad[cellOfQubit(q)]
		cost := 1 + 0.5*float64(load)
		if load >= 2*g.L-3 {
			cost += 40
		}
		return cost
	}
	dist := map[int]float64{}
	parent := map[int]int{}
	pq := &floatHeap{}
	for _, q := range chains[u] {
		dist[q] = 0
		parent[q] = -1
		pq.push(heapItem{q, 0})
	}
	for pq.len() > 0 {
		it := pq.pop()
		if it.cost > dist[it.q] {
			continue
		}
		for _, n := range g.Neighbors(it.q) {
			if inV[n] {
				// Found: allocate the free qubits on the path back to u.
				var path []int
				q := it.q
				for q >= 0 {
					if !used[q] {
						used[q] = true
						cellLoad[cellOfQubit(q)]++
						chains[u] = append(chains[u], q)
						path = append(path, q)
					}
					q = parent[q]
				}
				return path
			}
			if used[n] || g.IsBroken(n) {
				continue
			}
			nd := it.cost + qubitCost(n)
			if d, seen := dist[n]; !seen || nd < d {
				dist[n] = nd
				parent[n] = it.q
				pq.push(heapItem{n, nd})
			}
		}
	}
	return nil
}

// fastExp is a cheap exp(-x) approximation for the annealing acceptance
// test; precision is irrelevant there.
func fastExp(x float64) float64 {
	if x < -30 {
		return 0
	}
	// exp(x) ≈ (1 + x/32)^32 for the small negative x used here.
	y := 1 + x/32
	if y < 0 {
		return 0
	}
	y *= y
	y *= y
	y *= y
	y *= y
	y *= y
	return y
}
