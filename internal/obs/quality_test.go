package obs

import (
	"math"
	"testing"
)

// qaCall builds a QACallEvent with uniform energies and the given per-read
// broken-chain counts.
func qaCall(chains, maxLen int, broken []int, energies []float64, best int, deviceNs int64) QACallEvent {
	return QACallEvent{
		Reads: len(broken), Energies: energies, BrokenChains: broken,
		Chains: chains, MaxChainLen: maxLen, Best: best, DeviceNs: deviceNs,
	}
}

func TestQualityChainBreakBuckets(t *testing.T) {
	q := NewQualityTracker(nil)
	// Two reads over a 10-chain embedding with max chain 3 → bucket ≤4.
	q.Emit(qaCall(10, 3, []int{1, 2}, []float64{0, 0}, 0, 0))
	// One read, max chain 40 → overflow bucket.
	q.Emit(qaCall(5, 40, []int{5}, []float64{0}, 0, 0))

	s := q.Snapshot()
	if s.QACalls != 2 || s.Reads != 3 {
		t.Fatalf("calls=%d reads=%d, want 2/3", s.QACalls, s.Reads)
	}
	if s.Chains != 25 || s.BrokenChains != 8 {
		t.Fatalf("chains=%d broken=%d, want 25/8", s.Chains, s.BrokenChains)
	}
	if got := s.ChainBreakRate; math.Abs(got-8.0/25) > 1e-12 {
		t.Fatalf("rate=%v, want 8/25", got)
	}
	if len(s.ChainBreakByLen) != 2 {
		t.Fatalf("buckets=%+v, want 2", s.ChainBreakByLen)
	}
	b4 := s.ChainBreakByLen[0]
	if b4.MaxLen != 4 || b4.Reads != 2 || b4.Chains != 20 || b4.Broken != 3 {
		t.Fatalf("≤4 bucket = %+v", b4)
	}
	ovf := s.ChainBreakByLen[1]
	if ovf.MaxLen != 0 || ovf.Chains != 5 || ovf.Broken != 5 || ovf.Rate != 1 {
		t.Fatalf("overflow bucket = %+v", ovf)
	}
}

func TestQualityEnergyGaps(t *testing.T) {
	q := NewQualityTracker(nil)
	// Best read is index 1 at energy -4: gaps are 3, 0, 1.5.
	q.Emit(qaCall(1, 2, []int{0, 0, 0}, []float64{-1, -4, -2.5}, 1, 0))
	// Best index out of range: no gap samples recorded.
	q.Emit(qaCall(1, 2, []int{0}, []float64{7}, -1, 0))

	g := q.Snapshot().EnergyGap
	if g.Count != 3 {
		t.Fatalf("gap count=%d, want 3", g.Count)
	}
	if g.Min != 0 || g.Max != 3 || math.Abs(g.Mean-1.5) > 1e-12 {
		t.Fatalf("gap stats = %+v, want min 0 max 3 mean 1.5", g)
	}
}

// TestQualityPayoff pins the payoff definition: baseline mean conflicts per
// segment comes from strategy-0 segments, avoided conflicts is
// Σ segments×(baseline−mean) over strategies 1–4, and payoff divides by
// modelled device time in µs.
func TestQualityPayoff(t *testing.T) {
	q := NewQualityTracker(nil)
	// 2000 ns = 2 µs of device time.
	q.Emit(qaCall(1, 2, []int{0}, []float64{0}, 0, 2000))

	// Segment 1 under strategy 0: 100 conflicts (baseline).
	q.Emit(StrategyHitEvent{Strategy: 0})
	q.Emit(ConflictEvent{Conflicts: 100})
	// Segment 2 under strategy 1: 40 conflicts.
	q.Emit(StrategyHitEvent{Strategy: 1})
	q.Emit(ConflictEvent{Conflicts: 140})
	// Close the strategy-1 segment.
	q.Emit(StrategyHitEvent{Strategy: 2})

	s := q.Snapshot()
	if s.BaselineConflictsPerSegment != 100 {
		t.Fatalf("baseline=%v, want 100", s.BaselineConflictsPerSegment)
	}
	if s.AvoidedConflicts != 60 {
		t.Fatalf("avoided=%v, want 60", s.AvoidedConflicts)
	}
	if s.PayoffPerDeviceUs != 30 {
		t.Fatalf("payoff=%v, want 60/2µs = 30", s.PayoffPerDeviceUs)
	}

	var s1 StrategyQuality
	for _, st := range s.Strategies {
		if st.Strategy == 1 {
			s1 = st
		}
	}
	if s1.Segments != 1 || s1.Conflicts != 40 || s1.MeanConflicts != 40 {
		t.Fatalf("strategy-1 attribution = %+v", s1)
	}
}

// TestQualityPayoffZeroWithoutBaseline: with no strategy-0 or degraded
// segments there is nothing to compare against, so payoff is 0 by definition.
func TestQualityPayoffZeroWithoutBaseline(t *testing.T) {
	q := NewQualityTracker(nil)
	q.Emit(qaCall(1, 2, []int{0}, []float64{0}, 0, 5000))
	q.Emit(StrategyHitEvent{Strategy: 1})
	q.Emit(ConflictEvent{Conflicts: 10})
	q.Emit(StrategyHitEvent{Strategy: 1})
	s := q.Snapshot()
	if s.PayoffPerDeviceUs != 0 || s.AvoidedConflicts != 0 {
		t.Fatalf("payoff without baseline = %+v, want zeros", s)
	}
}

// TestQualityDegradeJoinsBaseline: a degraded iteration masks QA guidance, so
// the segment that follows a DegradeEvent accrues to strategy 0.
func TestQualityDegradeJoinsBaseline(t *testing.T) {
	q := NewQualityTracker(nil)
	q.Emit(DegradeEvent{Iteration: 1, Err: "breaker open"})
	q.Emit(ConflictEvent{Conflicts: 70})
	q.Emit(StrategyHitEvent{Strategy: 1}) // closes the degraded segment

	s := q.Snapshot()
	if s.Degrades != 1 {
		t.Fatalf("degrades=%d, want 1", s.Degrades)
	}
	if len(s.Strategies) == 0 || s.Strategies[0].Strategy != 0 ||
		s.Strategies[0].Segments != 1 || s.Strategies[0].Conflicts != 70 {
		t.Fatalf("degraded segment not attributed to baseline: %+v", s.Strategies)
	}
}

// TestQualityConflictCounterReset: a cube worker's QA warm-ups each run a
// fresh CDCL core under one warm-up source, resetting the conflict counter;
// the tracker must keep the total monotonic instead of attributing a huge
// negative delta, and must not lose a one-conflict core's conflict when the
// next core's first count equals it.
func TestQualityConflictCounterReset(t *testing.T) {
	q := NewQualityTracker(nil)
	q.Emit(StrategyHitEvent{Strategy: 0})
	q.Emit(ConflictEvent{Conflicts: 50})
	q.Emit(ConflictEvent{Conflicts: 80})
	q.Emit(ConflictEvent{Conflicts: 30}) // reset: new warm-up, 30 fresh conflicts
	q.Emit(ConflictEvent{Conflicts: 1})  // reset: a warm-up with one conflict
	q.Emit(ConflictEvent{Conflicts: 1})  // reset: the next warm-up's first
	q.Emit(StrategyHitEvent{Strategy: 1})

	s := q.Snapshot()
	if s.Conflicts != 112 {
		t.Fatalf("total conflicts=%d, want 80+30+1+1=112", s.Conflicts)
	}
	if s.Strategies[0].Conflicts != 112 {
		t.Fatalf("baseline segment conflicts=%d, want 112", s.Strategies[0].Conflicts)
	}
}

// TestQualityPreStrategyConflictsUnattributed: conflicts before the first
// strategy event count in the total but belong to no strategy segment.
func TestQualityPreStrategyConflictsUnattributed(t *testing.T) {
	q := NewQualityTracker(nil)
	q.Emit(ConflictEvent{Conflicts: 25})
	q.Emit(StrategyHitEvent{Strategy: 2})
	q.Emit(ConflictEvent{Conflicts: 35})
	q.Emit(StrategyHitEvent{Strategy: 2})

	s := q.Snapshot()
	if s.Conflicts != 35 {
		t.Fatalf("total=%d, want 35", s.Conflicts)
	}
	var total int64
	for _, st := range s.Strategies {
		total += st.Conflicts
	}
	if total != 10 {
		t.Fatalf("attributed conflicts=%d, want only the 10 post-strategy", total)
	}
}

// TestQualityBySourceIsolation: two interleaved sources must keep separate
// conflict counters and segment state.
func TestQualityBySourceIsolation(t *testing.T) {
	q := NewQualityTracker(nil)
	a := Source{Solve: "s1", Name: "a"}
	b := Source{Solve: "s1", Name: "b"}
	q.EmitFrom(a, StrategyHitEvent{Strategy: 0})
	q.EmitFrom(b, StrategyHitEvent{Strategy: 1})
	q.EmitFrom(a, ConflictEvent{Conflicts: 10})
	q.EmitFrom(b, ConflictEvent{Conflicts: 3})
	q.EmitFrom(a, StrategyHitEvent{Strategy: 1})
	q.EmitFrom(b, StrategyHitEvent{Strategy: 1})

	per := q.BySource()
	sa, sb := per[a], per[b]
	if sa.Conflicts != 10 || sb.Conflicts != 3 {
		t.Fatalf("per-source conflicts a=%d b=%d, want 10/3", sa.Conflicts, sb.Conflicts)
	}
	if sa.Strategies[0].Strategy != 0 || sa.Strategies[0].Conflicts != 10 {
		t.Fatalf("source a attribution = %+v", sa.Strategies)
	}
	if sb.Strategies[0].Strategy != 1 || sb.Strategies[0].Conflicts != 3 {
		t.Fatalf("source b attribution = %+v", sb.Strategies)
	}
	if agg := q.Snapshot(); agg.Conflicts != 13 {
		t.Fatalf("merged conflicts=%d, want 13", agg.Conflicts)
	}
}

// TestQualityRegistryMirrors: with a registry, totals appear as quality_*
// metrics in the text exposition.
func TestQualityRegistryMirrors(t *testing.T) {
	reg := NewRegistry()
	q := NewQualityTracker(reg)
	q.Emit(qaCall(10, 3, []int{1, 2}, []float64{0, 1}, 0, 1000))
	q.Emit(StrategyHitEvent{Strategy: 1})
	q.Emit(DegradeEvent{})

	snap := reg.Snapshot()
	want := map[string]int64{
		"quality_qa_calls_total":        1,
		"quality_qa_reads_total":        2,
		"quality_chains_total":          20,
		"quality_chain_breaks_total":    3,
		"quality_degrades_total":        1,
		"quality_strategy_hits_total_1": 1,
	}
	for name, v := range want {
		if snap.Counters[name] != v {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], v)
		}
	}
	if h := snap.Histograms["quality_energy_gap"]; h.Count != 2 {
		t.Errorf("quality_energy_gap count = %d, want 2", h.Count)
	}
}

// TestComputeQualityMatchesLive: offline replay of an attributed trace must
// produce the same per-source summaries as the live tracker.
func TestComputeQualityMatchesLive(t *testing.T) {
	ring := NewRing(32)
	live := NewQualityTracker(nil)
	tee := Tee(ring, live)
	scoped := WithSource(tee, Source{Solve: "s1", Name: "hyqsat"})
	scoped.Emit(qaCall(10, 3, []int{1, 0}, []float64{0, 2}, 0, 4000))
	scoped.Emit(StrategyHitEvent{Strategy: 0})
	scoped.Emit(ConflictEvent{Conflicts: 100})
	scoped.Emit(StrategyHitEvent{Strategy: 2})
	scoped.Emit(ConflictEvent{Conflicts: 130})
	scoped.Emit(DegradeEvent{})

	lo, ls := ComputeQuality(ring.Events()), live.Snapshot()
	if lo.QACalls != ls.QACalls || lo.Conflicts != ls.Conflicts ||
		lo.PayoffPerDeviceUs != ls.PayoffPerDeviceUs ||
		lo.ChainBreakRate != ls.ChainBreakRate {
		t.Fatalf("offline %+v != live %+v", lo, ls)
	}
	offline := NewQualityTracker(nil)
	for _, ev := range ring.Events() {
		offline.EmitFrom(ev.Source(), ev.E)
	}
	perSrc := offline.BySource()
	if _, ok := perSrc[Source{Solve: "s1", Name: "hyqsat"}]; !ok {
		t.Fatalf("offline by-source lost attribution: %v", perSrc)
	}
}

func TestChainBucketIndex(t *testing.T) {
	for _, tc := range []struct{ len, want int }{
		{1, 0}, {2, 0}, {3, 1}, {4, 1}, {8, 2}, {16, 3}, {17, 4}, {1000, 4},
	} {
		if got := chainBucketIndex(tc.len); got != tc.want {
			t.Errorf("chainBucketIndex(%d) = %d, want %d", tc.len, got, tc.want)
		}
	}
}
