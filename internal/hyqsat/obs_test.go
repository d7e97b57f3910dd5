package hyqsat

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hyqsat/internal/obs"
	"hyqsat/internal/sat"
)

// TestPhaseSpansDisjointAndBounded is the phase-accounting invariant behind
// the Fig 11 breakdown: spans never overlap, and the measured CPU phases
// (frontend + backend + cdcl) sum to no more than the solve's wall time.
// The modelled QA device time is excluded — it is charged, not measured.
func TestPhaseSpansDisjointAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := random3SAT(rng, 30, 125)
	h := New(f, simOpts(3))
	t0 := time.Now()
	r := h.Solve()
	wall := time.Since(t0)
	if r.Status == sat.Unknown {
		t.Fatalf("solve inconclusive")
	}
	if n := h.PhaseOverlaps(); n != 0 {
		t.Fatalf("phase tracker counted %d overlap violations, want 0", n)
	}
	st := r.Stats
	measured := st.Frontend + st.Backend + st.CDCL
	if measured > wall {
		t.Fatalf("phases sum to %v, more than the %v wall time", measured, wall)
	}
	if measured == 0 {
		t.Fatal("no phase time recorded at all")
	}
	if st.Total() != measured+st.QADevice {
		t.Fatalf("Total() = %v, want measured %v + modelled %v", st.Total(), measured, st.QADevice)
	}
}

// TestTraceReconstructsFigures records a full solve trace and rebuilds the
// paper's views from it: the Fig 11 phase breakdown must agree exactly with
// the Stats the solver reports (both are fed by the same spans), and the
// Fig 9 outcome counts must cover every QA-guided iteration.
func TestTraceReconstructsFigures(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := random3SAT(rng, 30, 125)
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	o := simOpts(4)
	o.Trace = sink
	h := New(f, o)
	r := h.Solve()
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	_, events, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("trace is empty")
	}

	st := r.Stats
	bd := obs.PhaseBreakdown(events)
	for phase, want := range map[string]time.Duration{
		"frontend":  st.Frontend,
		"backend":   st.Backend,
		"cdcl":      st.CDCL,
		"qa_device": st.QADevice,
	} {
		if bd[phase] != want {
			t.Errorf("trace %s = %v, Stats says %v", phase, bd[phase], want)
		}
	}

	oc := obs.OutcomeCounts(events)
	total := 0
	for _, n := range oc {
		total += n
	}
	if want := st.Strategy1Hits + st.Strategy2Hits + st.Strategy3Hits + st.Strategy4Hits; total != want {
		t.Errorf("trace outcome events %d (%v), strategy hits say %d", total, oc, want)
	}
	if total == 0 {
		t.Error("no strategy outcomes traced")
	}

	// Every QA call must appear, with the reads the stats counted.
	var calls int
	var reads int64
	for _, ev := range events {
		if q, ok := ev.E.(obs.QACallEvent); ok {
			calls++
			reads += int64(q.Reads)
		}
	}
	if calls != st.QACalls || reads != st.QAReads {
		t.Errorf("trace has %d calls/%d reads, stats say %d/%d",
			calls, reads, st.QACalls, st.QAReads)
	}
}

// TestTracingPreservesSolve pins that tracing is observational: the verdict,
// model, and every hybrid counter are identical with and without a live sink.
func TestTracingPreservesSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	f := random3SAT(rng, 30, 120)
	plain := New(f.Copy(), simOpts(6)).Solve()

	o := simOpts(6)
	o.Trace = obs.NewJSONLSink(io.Discard)
	traced := New(f.Copy(), o).Solve()

	if plain.Status != traced.Status {
		t.Fatalf("status %v with tracing, %v without", traced.Status, plain.Status)
	}
	for i := range plain.Model {
		if plain.Model[i] != traced.Model[i] {
			t.Fatalf("model differs at var %d with tracing enabled", i)
		}
	}
	ps, ts := plain.Stats, traced.Stats
	if ps.SAT.Iterations != ts.SAT.Iterations || ps.QACalls != ts.QACalls ||
		ps.QAReads != ts.QAReads || ps.WarmupIterations != ts.WarmupIterations ||
		ps.Strategy1Hits != ts.Strategy1Hits || ps.Strategy4Hits != ts.Strategy4Hits {
		t.Fatalf("counters differ with tracing: %+v vs %+v", ts, ps)
	}
}

// TestLiveEndpointsDuringSolve serves the solver's registry and LiveStatus
// over obs.Handler and queries both endpoints while Solve runs on another
// goroutine — the introspection contract of the telemetry layer.
func TestLiveEndpointsDuringSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	f := random3SAT(rng, 40, 168)
	h := New(f, simOpts(7))
	var status obs.StatusVar
	status.Set(h.LiveStatus)
	handler := obs.Handler(h.Metrics(), nil, &status)

	done := make(chan Result, 1)
	go func() { done <- h.Solve() }()

	deadline := time.After(30 * time.Second)
	for probes := 0; ; probes++ {
		req := httptest.NewRequest("GET", "/solve/status", nil)
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		var st map[string]any
		if w.Code != 200 || json.Unmarshal(w.Body.Bytes(), &st) != nil {
			t.Fatalf("status probe %d: code=%d body=%q", probes, w.Code, w.Body)
		}
		if st["state"] != "solving" {
			t.Fatalf("status state = %v", st["state"])
		}

		req = httptest.NewRequest("GET", "/metrics", nil)
		w = httptest.NewRecorder()
		handler.ServeHTTP(w, req)
		if w.Code != 200 || !strings.Contains(w.Body.String(), "hyqsat_qa_calls") {
			t.Fatalf("metrics probe %d: code=%d", probes, w.Code)
		}

		select {
		case r := <-done:
			if r.Status == sat.Unknown {
				t.Fatal("solve inconclusive")
			}
			if probes == 0 {
				t.Log("solve finished before the second probe; endpoints still verified")
			}
			// Final status must reflect the finished solve's counters.
			st := h.LiveStatus()
			if st["qa_calls"].(int64) != int64(r.Stats.QACalls) {
				t.Fatalf("live qa_calls %v, stats %d", st["qa_calls"], r.Stats.QACalls)
			}
			return
		case <-deadline:
			t.Fatal("solve did not finish in 30s")
		default:
		}
	}
}

// TestStatsIsRegistryView pins the Stats-as-view contract: the struct and
// the registry the solver exposes report the same numbers.
func TestStatsIsRegistryView(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	f := random3SAT(rng, 25, 100)
	h := New(f, simOpts(8))
	r := h.Solve()
	snap := h.Metrics().Snapshot()
	st := r.Stats
	for name, want := range map[string]int64{
		"hyqsat_qa_calls":           int64(st.QACalls),
		"hyqsat_qa_reads":           st.QAReads,
		"hyqsat_warmup_iterations":  int64(st.WarmupIterations),
		"hyqsat_embedded_clauses":   st.EmbeddedClauses,
		"hyqsat_embed_cache_hits":   int64(st.EmbedCacheHits),
		"hyqsat_strategy1_hits":     int64(st.Strategy1Hits),
		"hyqsat_phase_frontend_ns":  int64(st.Frontend),
		"hyqsat_phase_cdcl_ns":      int64(st.CDCL),
		"hyqsat_phase_qa_device_ns": int64(st.QADevice),
	} {
		if snap.Counters[name] != want {
			t.Errorf("registry %s = %d, Stats says %d", name, snap.Counters[name], want)
		}
	}
	if snap.Counters["hyqsat_phase_overlaps"] != 0 {
		t.Errorf("phase overlaps = %d", snap.Counters["hyqsat_phase_overlaps"])
	}
}
