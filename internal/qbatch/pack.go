// Package qbatch coalesces concurrent QPU sample requests into single device
// programs. The paper's timing model charges ProgrammingTime once per
// program, and its clause-tiling insight — many small 3-clause QUBOs embedded
// side by side on disjoint Chimera unit cells — generalizes across requests:
// independent embedded problems can be shifted by a whole number of unit
// cells onto disjoint free tiles of one chip and annealed together, so a
// batch of k requests pays for one program instead of k.
//
// The package has two layers: the Packer/Packing pair places member problems
// onto disjoint tile regions (one first-fit tile translation per member,
// allocation-free in steady state) and so decides which requests fit one
// program; the Scheduler collects concurrent requests for a short window,
// packs them, samples each member with its own stream in one batched device
// access, and charges each member a pro-rata share of the single program's
// access time.
package qbatch

import (
	"fmt"

	"hyqsat/internal/anneal"
	"hyqsat/internal/topo"
)

// PackReason classifies why a problem could not be co-tiled.
type PackReason string

const (
	// ReasonTopology: the problem was embedded for a different hardware
	// graph than the packer's. Co-tiling problems across topologies would
	// silently mis-place qubits, so this is a hard refusal — the request is
	// rejected, not served solo.
	ReasonTopology PackReason = "topology"
	// ReasonLayout: a qubit of the problem lies outside the device or
	// outside every unit cell, so no tile translation can move it. The
	// scheduler serves such requests as their own program at their original
	// placement.
	ReasonLayout PackReason = "layout"
	// ReasonCapacity: the chip has no compatible free tiles left in this
	// packing. The scheduler flushes the current program and retries the
	// member in the next one.
	ReasonCapacity PackReason = "capacity"
)

// PackError reports why a member could not join a packing.
type PackError struct {
	Reason PackReason
	Detail string
}

func (e *PackError) Error() string {
	return fmt.Sprintf("qbatch: cannot pack (%s): %s", e.Reason, e.Detail)
}

// maxTileSide bounds the per-side qubit count of a unit cell so tile usage
// fits a uint32 position mask. Chimera and Pegasus cells are K_{4,4}; the
// bound leaves generous headroom.
const maxTileSide = 32

// Packer holds the immutable per-topology placement tables: for every qubit
// its (tile, side, position) coordinate, and for every tile the bitmask of
// working positions per side. A Packer is safe for concurrent use; the
// mutable packing state lives in Packing.
type Packer struct {
	g     topo.Topology
	tiles []topo.Tile
	// qubitTile[q] is the tile index of qubit q, or -1 when q lies outside
	// every unit cell (such qubits cannot be moved by a tile translation).
	qubitTile []int32
	qubitSide []int8 // 0 = A side, 1 = B side
	qubitPos  []int8 // position within the side's slice
	workA     []uint32
	workB     []uint32
}

// NewPacker precomputes placement tables for g. It errors when g has no
// tiles or a tile side exceeds the position-mask width.
func NewPacker(g topo.Topology) (*Packer, error) {
	tiles := g.Tiles()
	if len(tiles) == 0 {
		return nil, fmt.Errorf("qbatch: topology %s has no unit cells to pack onto", g.Name())
	}
	p := &Packer{
		g:         g,
		tiles:     tiles,
		qubitTile: make([]int32, g.NumQubits()),
		qubitSide: make([]int8, g.NumQubits()),
		qubitPos:  make([]int8, g.NumQubits()),
		workA:     make([]uint32, len(tiles)),
		workB:     make([]uint32, len(tiles)),
	}
	for q := range p.qubitTile {
		p.qubitTile[q] = -1
	}
	for t, tile := range tiles {
		if len(tile.A) > maxTileSide || len(tile.B) > maxTileSide {
			return nil, fmt.Errorf("qbatch: topology %s has a %d/%d-qubit tile side, beyond the %d-bit mask",
				g.Name(), len(tile.A), len(tile.B), maxTileSide)
		}
		for pos, q := range tile.A {
			p.qubitTile[q] = int32(t)
			p.qubitSide[q] = 0
			p.qubitPos[q] = int8(pos)
			if !g.IsBroken(q) {
				p.workA[t] |= 1 << pos
			}
		}
		for pos, q := range tile.B {
			p.qubitTile[q] = int32(t)
			p.qubitSide[q] = 1
			p.qubitPos[q] = int8(pos)
			if !g.IsBroken(q) {
				p.workB[t] |= 1 << pos
			}
		}
	}
	return p, nil
}

// Compatible reports whether ep was embedded for (a graph interchangeable
// with) the packer's topology. A nil Graph — e.g. a problem decoded from the
// wire — is accepted; feasibility is then judged purely by whether its qubit
// ids resolve onto the packer's tiles.
func (p *Packer) Compatible(ep *anneal.EmbeddedProblem) error {
	g := ep.Graph
	if g == nil || g == p.g {
		return nil
	}
	if g.Name() != p.g.Name() || g.NumQubits() != p.g.NumQubits() {
		return &PackError{Reason: ReasonTopology, Detail: fmt.Sprintf(
			"problem embedded for %s/%d qubits, device is %s/%d qubits",
			g.Name(), g.NumQubits(), p.g.Name(), p.g.NumQubits())}
	}
	return nil
}

// memberTile is one source tile used by the member currently being added:
// which tile, and which positions of each side it occupies.
type memberTile struct {
	src   int32
	usedA uint32
	usedB uint32
}

// Packing is one in-progress co-tiling of member problems onto disjoint
// regions of the packer's topology. It records only which tiles are
// occupied: a member's relocation is fully described by the tile
// translation Add returns. It is not safe for concurrent use; the scheduler
// pools packings. After warm-up, an Add/Reset cycle allocates nothing.
type Packing struct {
	p *Packer

	// Tile occupancy is epoch-stamped so Reset is O(1): tile t is occupied
	// by a committed member iff occStamp[t] == epoch.
	epoch    uint32
	occStamp []uint32

	// Per-Add scratch, epoch-stamped likewise: srcIx maps a source tile to
	// its index in memTiles for the Add in flight.
	addEpoch uint32
	srcStamp []uint32
	srcIx    []int32
	memTiles []memberTile
}

// NewPacking returns an empty packing over the packer's topology.
func (p *Packer) NewPacking() *Packing {
	n := len(p.tiles)
	return &Packing{
		p:        p,
		epoch:    1,
		occStamp: make([]uint32, n),
		addEpoch: 1,
		srcStamp: make([]uint32, n),
		srcIx:    make([]int32, n),
	}
}

// Reset empties the packing, retaining every buffer for reuse.
func (k *Packing) Reset() {
	k.epoch++
}

// Add attempts to co-tile ep into the packing. On success the member is
// committed onto free tiles disjoint from every earlier member and Add
// returns the tile translation that places it: every active qubit moves to
// the same (side, position) coordinate of the cell delta tiles on. On
// failure the packing is unchanged and the error is a *PackError whose
// Reason directs the caller: ReasonTopology is a hard refusal, ReasonLayout
// means the problem cannot be placed on this topology at all,
// ReasonCapacity means this packing is currently too full (retrying on an
// empty packing always succeeds, via the identity translation).
//
// The translation is chosen first-fit: candidate deltas put the member's
// first source cell on each cell of the chip in order, so delta 0 (the
// original placement) is among them and a one-cell member lands on the
// first free cell that fits. Every coupler of the member is verified
// against the topology at the translated position — a translation that
// crosses a grid boundary or lands on a broken coupler is rejected by the
// check, never silently mis-programmed.
func (k *Packing) Add(ep *anneal.EmbeddedProblem) (int32, error) {
	if err := k.p.Compatible(ep); err != nil {
		return 0, err
	}
	k.addEpoch++
	w := ep.WireView()
	p := k.p

	// Resolve every active qubit to a (tile, side, pos) coordinate and
	// accumulate per-source-tile usage masks.
	k.memTiles = k.memTiles[:0]
	for _, q := range w.Qubits {
		if q < 0 || q >= len(p.qubitTile) {
			return 0, &PackError{Reason: ReasonLayout,
				Detail: fmt.Sprintf("qubit %d outside the %d-qubit device", q, len(p.qubitTile))}
		}
		t := p.qubitTile[q]
		if t < 0 {
			return 0, &PackError{Reason: ReasonLayout,
				Detail: fmt.Sprintf("qubit %d lies outside every unit cell", q)}
		}
		if k.srcStamp[t] != k.addEpoch {
			k.srcStamp[t] = k.addEpoch
			k.srcIx[t] = int32(len(k.memTiles))
			k.memTiles = append(k.memTiles, memberTile{src: t})
		}
		mt := &k.memTiles[k.srcIx[t]]
		if p.qubitSide[q] == 0 {
			mt.usedA |= 1 << p.qubitPos[q]
		} else {
			mt.usedB |= 1 << p.qubitPos[q]
		}
	}
	if len(k.memTiles) == 0 {
		return 0, nil
	}

	n := int32(len(p.tiles))
	first := k.memTiles[0].src
cand:
	for t0 := int32(0); t0 < n; t0++ {
		delta := t0 - first
		for _, mt := range k.memTiles {
			t := mt.src + delta
			if t < 0 || t >= n || k.occStamp[t] == k.epoch {
				continue cand
			}
			if mt.usedA&^p.workA[t] != 0 || mt.usedB&^p.workB[t] != 0 {
				continue cand
			}
		}
		// Masks fit; verify every coupler survives the translation. This
		// catches grid-boundary wraps (the tile order is row-major, so a
		// delta can slide a member across a row edge) and any couplers the
		// Tile contract does not guarantee.
		for i := range w.Qubits {
			ri := k.relocated(w.Qubits[i], delta)
			for e := w.AdjStart[i]; e < w.AdjStart[i+1]; e++ {
				if !p.g.Coupled(ri, k.relocated(w.Qubits[w.AdjOther[e]], delta)) {
					continue cand
				}
			}
		}
		for _, mt := range k.memTiles {
			k.occStamp[mt.src+delta] = k.epoch
		}
		return delta, nil
	}
	return 0, &PackError{Reason: ReasonCapacity,
		Detail: fmt.Sprintf("no free translation fits the %d-cell member", len(k.memTiles))}
}

// relocated returns the physical qubit id of q after a tile translation by
// delta: the same (side, position) coordinate in cell tile(q)+delta.
func (k *Packing) relocated(q int, delta int32) int {
	p := k.p
	tile := p.tiles[p.qubitTile[q]+delta]
	if p.qubitSide[q] == 0 {
		return tile.A[p.qubitPos[q]]
	}
	return tile.B[p.qubitPos[q]]
}
