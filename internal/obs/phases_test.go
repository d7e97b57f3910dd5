package obs

import (
	"bytes"
	"testing"
	"time"
)

func TestPhaseTrackerDisjointSpans(t *testing.T) {
	reg := NewRegistry()
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	pt := NewPhaseTracker(reg, sink, "x_", "frontend", "backend")

	for i := 0; i < 3; i++ {
		sp := pt.Start(0)
		time.Sleep(time.Millisecond)
		sp.End()
		sp = pt.Start(1)
		sp.End()
	}
	if pt.Overlaps() != 0 {
		t.Fatalf("disjoint spans counted %d overlaps", pt.Overlaps())
	}
	if pt.Total(0) < 3*time.Millisecond {
		t.Fatalf("frontend total %v, want ≥ 3ms", pt.Total(0))
	}
	if reg.Counter("x_phase_frontend_ns").Value() != int64(pt.Total(0)) {
		t.Fatal("registry counter disagrees with Total")
	}
	if got := reg.Histogram("x_phase_backend_latency_ns", nil).Count(); got != 3 {
		t.Fatalf("backend latency observations = %d, want 3", got)
	}

	sink.Flush()
	_, events, err := ReadTrace(&buf)
	if err != nil || len(events) != 6 {
		t.Fatalf("events=%d err=%v, want 6 phase spans", len(events), err)
	}
	var prevEnd int64
	for _, ev := range events {
		span := ev.E.(PhaseSpan)
		if span.StartNs < prevEnd {
			t.Fatalf("span %+v starts before previous end %d", span, prevEnd)
		}
		prevEnd = span.EndNs
	}
	bd := PhaseBreakdown(events)
	if bd["frontend"] != pt.Total(0) || bd["backend"] != pt.Total(1) {
		t.Fatalf("PhaseBreakdown %v disagrees with tracker totals %v/%v",
			bd, pt.Total(0), pt.Total(1))
	}
}

func TestPhaseTrackerCountsOverlaps(t *testing.T) {
	reg := NewRegistry()
	pt := NewPhaseTracker(reg, nil, "y_", "a", "b")
	spA := pt.Start(0)
	spB := pt.Start(1) // overlap: a still open
	spA.End()          // overlap: b is the active phase now
	spB.End()
	if pt.Overlaps() != 2 {
		t.Fatalf("overlaps = %d, want 2", pt.Overlaps())
	}
}

func TestZeroSpanIsNoop(t *testing.T) {
	var sp Span
	sp.End() // must not panic
}
