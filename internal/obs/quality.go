package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// chainLenBounds are the upper bounds of the chain-break buckets: break rate
// is tracked separately for embeddings whose longest chain is ≤2, ≤4, ≤8,
// ≤16, and >16 qubits. Chain length drives annealer error (Pudenz et al.),
// so the bucketed rates are the feature the dispatch policy reads to decide
// when an instance family stops paying for QA calls.
var chainLenBounds = []int{2, 4, 8, 16}

// QualityTracker is a streaming aggregator of QA solution quality. It
// implements Tracer (and carries attribution), so it composes into any Tee
// alongside the JSONL and flight-recorder sinks: feed it the live event
// stream and it maintains, per event source and in aggregate,
//
//   - chain-break rate, bucketed by the embedding's longest chain,
//   - the distribution of per-read energy gaps to the best read of the call,
//   - per-strategy hit counts and conflict-segment attribution, and
//   - a QA-payoff estimate: conflicts avoided per microsecond of modelled
//     device time, relative to the in-solve baseline (strategy-0 and
//     degraded segments, where QA guidance was absent or masked).
//
// The same aggregation runs offline over a recorded trace via ComputeQuality.
// When constructed with a Registry, the tracker mirrors its totals into
// quality_* metrics so /metrics exposes them live. Safe for concurrent use.
type QualityTracker struct {
	mu       sync.Mutex
	bySource map[Source]*qualityAgg

	// registry mirrors; nil without a registry
	mQACalls  *Counter
	mReads    *Counter
	mChains   *Counter
	mBroken   *Counter
	mDegrades *Counter
	mStrat    [5]*Counter
	mGap      *Histogram
	mPayoff   *Gauge // milli-conflicts avoided per device-µs
}

// NewQualityTracker returns a quality tracker. reg may be nil; with a
// registry the tracker mirrors its aggregates into quality_* metrics.
func NewQualityTracker(reg *Registry) *QualityTracker {
	t := &QualityTracker{bySource: map[Source]*qualityAgg{}}
	if reg != nil {
		t.mQACalls = reg.Counter("quality_qa_calls_total")
		t.mReads = reg.Counter("quality_qa_reads_total")
		t.mChains = reg.Counter("quality_chains_total")
		t.mBroken = reg.Counter("quality_chain_breaks_total")
		t.mDegrades = reg.Counter("quality_degrades_total")
		for s := range t.mStrat {
			t.mStrat[s] = reg.Counter(fmt.Sprintf("quality_strategy_hits_total_%d", s))
		}
		t.mGap = reg.Histogram("quality_energy_gap", ExpBuckets(0.5, 2, 8))
		t.mPayoff = reg.Gauge("quality_payoff_mconflicts_per_device_us")
	}
	return t
}

// Enabled implements Tracer.
func (t *QualityTracker) Enabled() bool { return true }

// Emit implements Tracer.
func (t *QualityTracker) Emit(e Event) { t.EmitFrom(Source{}, e) }

// EmitFrom implements Tracer: events are aggregated per source, so
// concurrent cube workers keep separate conflict
// counters and the segment attribution stays coherent per emitter.
func (t *QualityTracker) EmitFrom(src Source, e Event) {
	t.mu.Lock()
	agg := t.bySource[src]
	if agg == nil {
		agg = newQualityAgg()
		t.bySource[src] = agg
	}
	agg.observe(e, t)
	t.mu.Unlock()
}

// Snapshot returns the aggregate quality summary across all sources.
func (t *QualityTracker) Snapshot() QualitySummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	merged := newQualityAgg()
	for _, agg := range t.bySource {
		merged.merge(agg)
	}
	return merged.summary()
}

// BySource returns one quality summary per event source. Unattributed events
// land under the zero Source.
func (t *QualityTracker) BySource() map[Source]QualitySummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[Source]QualitySummary, len(t.bySource))
	for src, agg := range t.bySource {
		out[src] = agg.summary()
	}
	return out
}

// StatusMap returns the live-status view of the aggregate summary, merged by
// the CLI into /solve/status.
func (t *QualityTracker) StatusMap() map[string]any {
	s := t.Snapshot()
	return map[string]any{
		"qa_calls":             s.QACalls,
		"qa_reads":             s.Reads,
		"chain_break_rate":     s.ChainBreakRate,
		"energy_gap_mean":      s.EnergyGap.Mean,
		"degrades":             s.Degrades,
		"payoff_per_device_us": s.PayoffPerDeviceUs,
	}
}

// ComputeQuality replays a recorded trace through the same aggregation the
// live tracker runs and returns the aggregate summary.
func ComputeQuality(events []Stamped) QualitySummary {
	t := NewQualityTracker(nil)
	for _, ev := range events {
		t.EmitFrom(ev.Source(), ev.E)
	}
	return t.Snapshot()
}

// QualitySummary is the QA-quality feature vector of one event stream — the
// exact signals the future adaptive-dispatch policy consumes.
type QualitySummary struct {
	QACalls         int64             `json:"qa_calls"`
	Reads           int64             `json:"reads"`
	DeviceUs        float64           `json:"device_us"`
	Chains          int64             `json:"chains"`
	BrokenChains    int64             `json:"broken_chains"`
	ChainBreakRate  float64           `json:"chain_break_rate"`
	ChainBreakByLen []ChainLenBucket  `json:"chain_break_by_len,omitempty"`
	EnergyGap       GapStats          `json:"energy_gap"`
	Strategies      []StrategyQuality `json:"strategies,omitempty"`
	Degrades        int64             `json:"degrades"`
	Conflicts       int64             `json:"conflicts"`

	// BaselineConflictsPerSegment is the mean conflict cost of a segment
	// without usable QA guidance (strategy 0, or a degraded iteration).
	BaselineConflictsPerSegment float64 `json:"baseline_conflicts_per_segment"`
	// AvoidedConflicts is Σ over strategies 1–4 of segments × (baseline mean
	// − strategy mean); negative when guidance made things worse.
	AvoidedConflicts float64 `json:"avoided_conflicts"`
	// PayoffPerDeviceUs is AvoidedConflicts per microsecond of modelled QA
	// device time — the break-even signal for hybrid dispatch.
	PayoffPerDeviceUs float64 `json:"payoff_per_device_us"`
}

// ChainLenBucket is the chain-break rate of QA calls whose embedding's
// longest chain falls in (previous bound, MaxLen]. MaxLen 0 marks the
// overflow bucket (longer than the last bound).
type ChainLenBucket struct {
	MaxLen int     `json:"max_len,omitempty"`
	Reads  int64   `json:"reads"`
	Chains int64   `json:"chains"`
	Broken int64   `json:"broken"`
	Rate   float64 `json:"rate"`
}

// GapStats summarises the per-read energy gap to the best read of the same
// QA call: 0 for the best read itself, positive for the rest. A wide mean
// gap means reads disagree — the annealer is far from its ground state.
type GapStats struct {
	Count int64   `json:"count"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	Mean  float64 `json:"mean"`
}

// StrategyQuality is the hit count and conflict-segment attribution of one
// feedback strategy (0 = masked/degraded baseline, 1–4 per the paper).
type StrategyQuality struct {
	Strategy      int     `json:"strategy"`
	Hits          int64   `json:"hits"`
	Segments      int64   `json:"segments"`
	Conflicts     int64   `json:"conflicts"`
	MeanConflicts float64 `json:"mean_conflicts"`
}

// qualityAgg is the per-source streaming state. All access is under the
// tracker mutex.
type qualityAgg struct {
	qaCalls  int64
	reads    int64
	chains   int64
	broken   int64
	deviceNs int64
	buckets  []chainAgg // len(chainLenBounds)+1, last = overflow

	gapCount int64
	gapSum   float64
	gapMin   float64
	gapMax   float64

	strat    [5]stratAgg
	degrades int64

	// conflict-segment attribution: conflictTotal is monotonic across
	// counter resets (a cube worker's QA warm-ups run one fresh CDCL core
	// each under one warm-up source); segStart
	// marks where the currently-open segment began; curStrategy is the
	// strategy whose guidance the open segment runs under (-1 before the
	// first strategy event — those conflicts stay unattributed).
	conflictTotal int64
	lastRaw       int64
	segStart      int64
	curStrategy   int
}

type chainAgg struct {
	reads  int64
	chains int64
	broken int64
}

type stratAgg struct {
	hits      int64
	segments  int64
	conflicts int64
}

func newQualityAgg() *qualityAgg {
	return &qualityAgg{
		buckets:     make([]chainAgg, len(chainLenBounds)+1),
		gapMin:      math.Inf(1),
		gapMax:      math.Inf(-1),
		curStrategy: -1,
	}
}

// observe folds one event into the aggregate. t carries the registry
// mirrors; it is never nil (pass a tracker without a registry offline).
func (a *qualityAgg) observe(e Event, t *QualityTracker) {
	switch ev := e.(type) {
	case QACallEvent:
		a.qaCalls++
		a.reads += int64(ev.Reads)
		a.deviceNs += ev.DeviceNs
		callChains := int64(ev.Chains) * int64(len(ev.BrokenChains))
		a.chains += callChains
		var callBroken int64
		for _, b := range ev.BrokenChains {
			callBroken += int64(b)
		}
		a.broken += callBroken
		if ev.MaxChainLen > 0 {
			b := &a.buckets[chainBucketIndex(ev.MaxChainLen)]
			b.reads += int64(len(ev.BrokenChains))
			b.chains += callChains
			b.broken += callBroken
		}
		if ev.Best >= 0 && ev.Best < len(ev.Energies) {
			best := ev.Energies[ev.Best]
			for _, en := range ev.Energies {
				gap := en - best
				a.gapCount++
				a.gapSum += gap
				if gap < a.gapMin {
					a.gapMin = gap
				}
				if gap > a.gapMax {
					a.gapMax = gap
				}
				if t.mGap != nil {
					t.mGap.Observe(gap)
				}
			}
		}
		if t.mQACalls != nil {
			t.mQACalls.Inc()
			t.mReads.Add(int64(ev.Reads))
			t.mChains.Add(callChains)
			t.mBroken.Add(callBroken)
		}
	case StrategyHitEvent:
		if ev.Strategy >= 0 && ev.Strategy < len(a.strat) {
			a.strat[ev.Strategy].hits++
			if t.mStrat[ev.Strategy] != nil {
				t.mStrat[ev.Strategy].Inc()
			}
		}
		a.closeSegment(ev.Strategy, t)
	case DegradeEvent:
		a.degrades++
		if t.mDegrades != nil {
			t.mDegrades.Inc()
		}
		// A degraded iteration ran without QA guidance: the following
		// segment joins the strategy-0 baseline.
		a.closeSegment(0, t)
	case ConflictEvent:
		// One core emits one event per conflict, so its counts strictly
		// rise; a count that does not is a fresh core's (a core that
		// stopped after one conflict is followed by another's count of 1).
		if ev.Conflicts > a.lastRaw {
			a.conflictTotal += ev.Conflicts - a.lastRaw
		} else {
			a.conflictTotal += ev.Conflicts // counter reset (a fresh CDCL core)
		}
		a.lastRaw = ev.Conflicts
	}
}

// closeSegment ends the open conflict segment, attributing its conflicts to
// the strategy it ran under, and opens a new one under next.
func (a *qualityAgg) closeSegment(next int, t *QualityTracker) {
	if a.curStrategy >= 0 && a.curStrategy < len(a.strat) {
		s := &a.strat[a.curStrategy]
		s.segments++
		s.conflicts += a.conflictTotal - a.segStart
		if t.mPayoff != nil {
			t.mPayoff.Set(int64(a.payoff() * 1000))
		}
	}
	a.segStart = a.conflictTotal
	if next >= 0 && next < len(a.strat) {
		a.curStrategy = next
	} else {
		a.curStrategy = -1
	}
}

// payoff returns conflicts avoided per device-µs for this aggregate alone.
func (a *qualityAgg) payoff() float64 {
	_, _, payoff := a.payoffParts()
	return payoff
}

func (a *qualityAgg) payoffParts() (baseline, avoided, payoff float64) {
	base := a.strat[0]
	if base.segments == 0 {
		return 0, 0, 0
	}
	baseline = float64(base.conflicts) / float64(base.segments)
	for s := 1; s < len(a.strat); s++ {
		if a.strat[s].segments == 0 {
			continue
		}
		mean := float64(a.strat[s].conflicts) / float64(a.strat[s].segments)
		avoided += float64(a.strat[s].segments) * (baseline - mean)
	}
	if a.deviceNs > 0 {
		payoff = avoided / (float64(a.deviceNs) / 1000)
	}
	return baseline, avoided, payoff
}

// merge folds other into a. Segment state does not merge (the merged view is
// only read through summary, which uses closed segments).
func (a *qualityAgg) merge(other *qualityAgg) {
	a.qaCalls += other.qaCalls
	a.reads += other.reads
	a.chains += other.chains
	a.broken += other.broken
	a.deviceNs += other.deviceNs
	for i := range a.buckets {
		a.buckets[i].reads += other.buckets[i].reads
		a.buckets[i].chains += other.buckets[i].chains
		a.buckets[i].broken += other.buckets[i].broken
	}
	a.gapCount += other.gapCount
	a.gapSum += other.gapSum
	if other.gapMin < a.gapMin {
		a.gapMin = other.gapMin
	}
	if other.gapMax > a.gapMax {
		a.gapMax = other.gapMax
	}
	for s := range a.strat {
		a.strat[s].hits += other.strat[s].hits
		a.strat[s].segments += other.strat[s].segments
		a.strat[s].conflicts += other.strat[s].conflicts
	}
	a.degrades += other.degrades
	a.conflictTotal += other.conflictTotal
}

func (a *qualityAgg) summary() QualitySummary {
	out := QualitySummary{
		QACalls:      a.qaCalls,
		Reads:        a.reads,
		DeviceUs:     float64(a.deviceNs) / 1000,
		Chains:       a.chains,
		BrokenChains: a.broken,
		Degrades:     a.degrades,
		Conflicts:    a.conflictTotal,
	}
	if a.chains > 0 {
		out.ChainBreakRate = float64(a.broken) / float64(a.chains)
	}
	for i, b := range a.buckets {
		if b.reads == 0 {
			continue
		}
		lb := ChainLenBucket{Reads: b.reads, Chains: b.chains, Broken: b.broken}
		if i < len(chainLenBounds) {
			lb.MaxLen = chainLenBounds[i]
		}
		if b.chains > 0 {
			lb.Rate = float64(b.broken) / float64(b.chains)
		}
		out.ChainBreakByLen = append(out.ChainBreakByLen, lb)
	}
	if a.gapCount > 0 {
		out.EnergyGap = GapStats{
			Count: a.gapCount,
			Min:   a.gapMin,
			Max:   a.gapMax,
			Mean:  a.gapSum / float64(a.gapCount),
		}
	}
	for s, st := range a.strat {
		if st.hits == 0 && st.segments == 0 {
			continue
		}
		sq := StrategyQuality{Strategy: s, Hits: st.hits, Segments: st.segments, Conflicts: st.conflicts}
		if st.segments > 0 {
			sq.MeanConflicts = float64(st.conflicts) / float64(st.segments)
		}
		out.Strategies = append(out.Strategies, sq)
	}
	sort.Slice(out.Strategies, func(i, j int) bool {
		return out.Strategies[i].Strategy < out.Strategies[j].Strategy
	})
	out.BaselineConflictsPerSegment, out.AvoidedConflicts, out.PayoffPerDeviceUs = a.payoffParts()
	return out
}

// chainBucketIndex maps a longest-chain length to its bucket.
func chainBucketIndex(maxLen int) int {
	for i, b := range chainLenBounds {
		if maxLen <= b {
			return i
		}
	}
	return len(chainLenBounds)
}
