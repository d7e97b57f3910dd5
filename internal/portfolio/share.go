package portfolio

import (
	"fmt"
	"sync"

	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
	"hyqsat/internal/sat"
)

// Clause-sharing bus bounds.
const (
	// maxShareLen admits only clauses of at most this many literals. Short
	// clauses prune the most and cost the least to attach.
	maxShareLen = 8
	// maxShareLBD admits only clauses of at most this LBD. Low-LBD "glue"
	// clauses are the ones empirically worth shipping between solvers.
	maxShareLBD = 6
	// inboxCapacity bounds each peer's inbox. A full inbox drops the
	// delivery — sharing is best-effort; a slow importer never blocks an
	// exporter's search loop.
	inboxCapacity = 512
)

// ShareStats is a point-in-time snapshot of the bus counters.
type ShareStats struct {
	Exported   int64 // clauses accepted and fanned out to peers
	Imported   int64 // clauses handed to importing solvers
	Filtered   int64 // offers rejected by the size/LBD filter
	Duplicates int64 // offers dropped by the fingerprint dedup set
	Dropped    int64 // deliveries lost to full peer inboxes
}

// sharedClause is one bus message. lits is bus-owned (copied once on export,
// read-only afterwards), so a fan-out to n peers shares one copy.
type sharedClause struct {
	lits []cnf.Lit
	lbd  int32
}

// Bus is the clause-sharing fabric of a solver group: each participant holds
// a Peer; a clause exported by one peer is delivered to every other peer's
// bounded inbox. A fingerprint set dedupes clauses globally (the same clause
// learnt by two solvers crosses the bus once; a fingerprint collision only
// suppresses a share, never corrupts one). All methods are safe for
// concurrent use.
//
// The bus moves clauses, not trust: certification happens downstream, where
// importing solvers re-assert everything they attach into the proof trace
// (sat.ImportClause). Inject exists precisely to test that property.
type Bus struct {
	mu      sync.Mutex
	peers   []*Peer
	seen    map[uint64]struct{}
	pending []sharedClause // injected before peers joined; delivered on NewPeer

	exported   *obs.Counter
	imported   *obs.Counter
	filtered   *obs.Counter
	duplicates *obs.Counter
	dropped    *obs.Counter
}

// NewBus builds a sharing bus. reg, when non-nil, is the metrics registry the
// bus counters are registered in (portfolio_share_*); nil uses a private one.
func NewBus(reg *obs.Registry) *Bus {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Bus{
		seen:       make(map[uint64]struct{}),
		exported:   reg.Counter("portfolio_share_exported"),
		imported:   reg.Counter("portfolio_share_imported"),
		filtered:   reg.Counter("portfolio_share_filtered"),
		duplicates: reg.Counter("portfolio_share_duplicates"),
		dropped:    reg.Counter("portfolio_share_dropped"),
	}
}

// NewPeer adds a participant to the bus and returns its endpoint (a
// sat.ClauseExchange). Clauses injected before the peer joined are waiting in
// its inbox.
func (b *Bus) NewPeer(name string) *Peer {
	b.mu.Lock()
	defer b.mu.Unlock()
	p := &Peer{bus: b, name: name, inbox: make(chan sharedClause, inboxCapacity)}
	for _, c := range b.pending {
		select {
		case p.inbox <- c:
		default:
			b.dropped.Inc()
		}
	}
	b.peers = append(b.peers, p)
	return p
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() ShareStats {
	return ShareStats{
		Exported:   b.exported.Value(),
		Imported:   b.imported.Value(),
		Filtered:   b.filtered.Value(),
		Duplicates: b.duplicates.Value(),
		Dropped:    b.dropped.Value(),
	}
}

// Inject delivers an arbitrary clause to every peer (current and future),
// bypassing the filter and the dedup set — and, deliberately, any proof
// logging: this is the adversarial entry point the soundness battery uses to
// verify that a corrupted clause on the bus makes certification fail rather
// than silently poisoning verdicts. Test hook; production exports go through
// Peer.Export.
func (b *Bus) Inject(lits []cnf.Lit, lbd int32) {
	c := sharedClause{lits: append([]cnf.Lit(nil), lits...), lbd: lbd}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.pending = append(b.pending, c)
	for _, p := range b.peers {
		select {
		case p.inbox <- c:
		default:
			b.dropped.Inc()
		}
	}
}

// fingerprint is an order-independent clause identity: literals are hashed
// individually (splitmix64 finaliser) and combined commutatively, so the same
// clause learnt with different literal orders dedupes to one bus crossing.
func fingerprint(lits []cnf.Lit) uint64 {
	h := uint64(len(lits)) * 0x9e3779b97f4a7c15
	for _, l := range lits {
		x := uint64(int64(l)) + 0x9e3779b97f4a7c15
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		h ^= x // commutative combine: order-independent
	}
	return h
}

// Peer is one participant's endpoint on the bus. It implements
// sat.ClauseExchange: attach it with Solver.SetExchange (or hand it to an
// entrant via RunInput.Exchange).
type Peer struct {
	bus   *Bus
	name  string
	inbox chan sharedClause
}

var _ sat.ClauseExchange = (*Peer)(nil)

// Name returns the peer's name (for events and diagnostics).
func (p *Peer) Name() string { return p.name }

// Export implements sat.ClauseExchange: filter, dedup, copy once, fan out.
// The fast paths (filtered, duplicate) are allocation-free — Export sits in
// the conflict-analysis hot path of every sharing solver
// (TestExportHotPathAllocs gates this).
func (p *Peer) Export(lits []cnf.Lit, lbd int32) {
	b := p.bus
	if len(lits) == 0 || len(lits) > maxShareLen || lbd > maxShareLBD {
		b.filtered.Inc()
		return
	}
	fp := fingerprint(lits)
	b.mu.Lock()
	if _, dup := b.seen[fp]; dup {
		b.mu.Unlock()
		b.duplicates.Inc()
		return
	}
	b.seen[fp] = struct{}{}
	c := sharedClause{lits: append([]cnf.Lit(nil), lits...), lbd: lbd}
	for _, q := range b.peers {
		if q == p {
			continue
		}
		select {
		case q.inbox <- c:
		default:
			b.dropped.Inc()
		}
	}
	b.mu.Unlock()
	b.exported.Inc()
}

// Import implements sat.ClauseExchange: drain the inbox without blocking.
func (p *Peer) Import(yield func(lits []cnf.Lit, lbd int32) bool) {
	for {
		select {
		case c := <-p.inbox:
			p.bus.imported.Inc()
			if !yield(c.lits, c.lbd) {
				return
			}
		default:
			return
		}
	}
}

// String implements fmt.Stringer for trace output.
func (p *Peer) String() string { return fmt.Sprintf("peer(%s)", p.name) }
