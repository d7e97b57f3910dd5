package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// allKinds is one event of every kind, with every field set, so round-trip
// tests cover the full taxonomy.
var allKinds = []Event{
	ConflictEvent{Conflicts: 7, Level: 3, LearntLen: 2, LBD: 2, Backjump: 1},
	RestartEvent{Restarts: 1, Conflicts: 50},
	QACallEvent{Call: 4, Reads: 3, Energies: []float64{0, 1.5, 4.5},
		BrokenChains: []int{0, 1, 0}, Chains: 9, MaxChainLen: 4, ChainQubits: 21,
		Best: 0, DeviceNs: 131000},
	EmbedEvent{Iteration: 2, QueueLen: 12, Embedded: 10, CacheHit: true,
		ActiveQubits: 40, HardwareQubits: 2048},
	StrategyHitEvent{Iteration: 2, Class: "satisfiable", Strategy: 1,
		Energy: 0, AllEmbedded: true},
	PhaseSpan{Phase: "frontend", StartNs: 100, EndNs: 350},
	BreakerEvent{Backend: "local", From: "closed", To: "open", Failures: 3},
	QPURetryEvent{Call: 9, Attempt: 2, BackoffNs: 1000, Err: "timeout"},
	QPUFaultEvent{Call: 9, Fault: "transient"},
	DegradeEvent{Iteration: 5, Err: "breaker open"},
	CubeEvent{Cube: 3, Worker: 1, Status: "refuted", Conflicts: 1234},
	BatchEvent{Members: 3, TotalReads: 5, ProgramReads: 2, ActiveQubits: 60,
		DeviceNs: 140000, DeviceSavedNs: 260000},
	JobEvent{Job: "j-1", Tenant: "team-a", State: "done", Verdict: "sat",
		QueueMs: 12, RunMs: 340},
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	if !sink.Enabled() {
		t.Fatal("JSONL sink reports disabled")
	}
	for _, e := range allKinds {
		sink.Emit(e)
	}
	if err := sink.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	_, got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != len(allKinds) {
		t.Fatalf("got %d events, want %d", len(got), len(allKinds))
	}
	covered := map[string]bool{}
	for i, e := range allKinds {
		covered[e.Kind()] = true
		if got[i].T != e.Kind() {
			t.Errorf("event %d: tag %q, want %q", i, got[i].T, e.Kind())
		}
		if !reflect.DeepEqual(got[i].E, e) {
			t.Errorf("event %d: %#v != %#v", i, got[i].E, e)
		}
	}
	for kind := range eventDecoders {
		if !covered[kind] {
			t.Errorf("allKinds has no %q event; the round trip does not cover it", kind)
		}
	}
	for i := 1; i < len(got); i++ {
		if got[i].TS < got[i-1].TS {
			t.Errorf("timestamps not monotonic: ts[%d]=%d < ts[%d]=%d",
				i, got[i].TS, i-1, got[i-1].TS)
		}
	}
}

// TestReadJSONLSkipsUnknownKinds: kinds the reader does not know — a newer
// writer's, or the portfolio-race and clause-sharing events schema-2 traces
// of older builds carry — are skipped, not rejected.
func TestReadJSONLSkipsUnknownKinds(t *testing.T) {
	in := `{"t":"from_the_future","ts":1,"e":{"x":1}}` + "\n" +
		`{"t":"portfolio","ts":345299,"solve":"s1","src":"minisat","e":{"entrant":"minisat","status":"start"}}` + "\n" +
		`{"t":"restart","ts":2,"e":{"restarts":1,"conflicts":9}}` + "\n" +
		`{"t":"share","ts":2942836,"solve":"s1","src":"race","e":{"exported":33,"imported":14,"filtered":0,"duplicates":0,"dropped":0}}` + "\n"
	_, got, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(got) != 1 || got[0].E != (RestartEvent{Restarts: 1, Conflicts: 9}) {
		t.Fatalf("got %#v, want the one restart event", got)
	}
}

func TestReadJSONLRejectsMalformedLines(t *testing.T) {
	if _, _, err := ReadTrace(strings.NewReader("not json\n")); err == nil {
		t.Fatal("malformed line silently accepted")
	}
}

func TestNopTracer(t *testing.T) {
	n := Nop()
	if n.Enabled() {
		t.Fatal("Nop tracer reports enabled")
	}
	n.Emit(RestartEvent{}) // must not panic
}

func TestTee(t *testing.T) {
	if got := Tee(); got.Enabled() {
		t.Fatal("empty Tee is enabled")
	}
	if got := Tee(nil, Nop()); got.Enabled() {
		t.Fatal("Tee of nil and Nop is enabled")
	}
	var a, b bytes.Buffer
	sa, sb := NewJSONLSink(&a), NewJSONLSink(&b)
	if got := Tee(nil, sa, Nop()); got != Tracer(sa) {
		t.Fatalf("single live sink not returned unwrapped: %T", got)
	}
	tee := Tee(sa, sb)
	if !tee.Enabled() {
		t.Fatal("two-sink Tee is disabled")
	}
	tee.Emit(RestartEvent{Restarts: 2})
	sa.Flush()
	sb.Flush()
	for name, buf := range map[string]*bytes.Buffer{"a": &a, "b": &b} {
		_, evs, err := ReadTrace(buf)
		if err != nil || len(evs) != 1 {
			t.Fatalf("sink %s: events=%d err=%v", name, len(evs), err)
		}
	}
}

func TestRingKeepsLastN(t *testing.T) {
	r := NewRing(3)
	if !r.Enabled() {
		t.Fatal("ring reports disabled")
	}
	for i := int64(1); i <= 5; i++ {
		r.Emit(RestartEvent{Restarts: i})
	}
	if r.Len() != 3 || r.Total() != 5 {
		t.Fatalf("Len=%d Total=%d, want 3/5", r.Len(), r.Total())
	}
	evs := r.Events()
	for i, want := range []int64{3, 4, 5} {
		if evs[i].E.(RestartEvent).Restarts != want {
			t.Fatalf("event %d = %#v, want Restarts=%d", i, evs[i].E, want)
		}
	}

	var buf bytes.Buffer
	if err := r.Dump(&buf); err != nil {
		t.Fatalf("dump: %v", err)
	}
	_, replayed, err := ReadTrace(&buf)
	if err != nil || len(replayed) != 3 {
		t.Fatalf("replayed=%d err=%v", len(replayed), err)
	}
	if replayed[0].E != (RestartEvent{Restarts: 3}) {
		t.Fatalf("dump oldest = %#v, want Restarts=3", replayed[0].E)
	}
}

func TestRingPartiallyFilled(t *testing.T) {
	r := NewRing(8)
	r.Emit(RestartEvent{Restarts: 1})
	if r.Len() != 1 || r.Total() != 1 {
		t.Fatalf("Len=%d Total=%d, want 1/1", r.Len(), r.Total())
	}
	if evs := r.Events(); len(evs) != 1 {
		t.Fatalf("Events()=%d, want 1", len(evs))
	}
}
