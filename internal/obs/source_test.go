package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestNextSolveIDUnique(t *testing.T) {
	a, b := NextSolveID(), NextSolveID()
	if a == b || a == "" {
		t.Fatalf("ids not unique: %q %q", a, b)
	}
}

func TestWithSourceDisabledIsNop(t *testing.T) {
	if got := WithSource(nil, Source{Solve: "s1"}); got.Enabled() {
		t.Fatal("WithSource(nil) is enabled")
	}
	if got := WithSource(Nop(), Source{Solve: "s1"}); got.Enabled() {
		t.Fatal("WithSource(Nop) is enabled")
	}
}

func TestWithSourceAttributesSinkAndRing(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	ring := NewRing(8)
	scoped := WithSource(Tee(sink, ring), Source{Solve: "s7", Name: "hyqsat"})
	if !scoped.Enabled() {
		t.Fatal("scoped tracer disabled")
	}
	scoped.Emit(RestartEvent{Restarts: 1})
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}

	header, evs, err := ReadTrace(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("events=%d err=%v", len(evs), err)
	}
	if header.Schema != TraceSchemaVersion || header.StartUs == 0 {
		t.Fatalf("header = %+v, want schema %d with a start time", header, TraceSchemaVersion)
	}
	if evs[0].Solve != "s7" || evs[0].Src != "hyqsat" {
		t.Fatalf("sink attribution = %q/%q, want s7/hyqsat", evs[0].Solve, evs[0].Src)
	}
	if got := evs[0].Source(); got != (Source{Solve: "s7", Name: "hyqsat"}) {
		t.Fatalf("Source() = %+v", got)
	}

	revs := ring.Events()
	if len(revs) != 1 || revs[0].Solve != "s7" || revs[0].Src != "hyqsat" {
		t.Fatalf("ring attribution = %+v", revs)
	}
}

// TestWithSourceOuterWins pins the nesting semantics: the scope nearest the
// sink (applied first) overrides the fields an inner scope set, and fills
// the rest from the inner scope — an enclosing scope's name beats the
// solver's own "hyqsat" source.
func TestWithSourceOuterWins(t *testing.T) {
	ring := NewRing(8)
	outer := WithSource(ring, Source{Solve: "race1", Name: "hyqsat/s3"})
	inner := WithSource(outer, Source{Solve: "s9", Name: "hyqsat"})
	inner.Emit(RestartEvent{Restarts: 1})

	fill := WithSource(ring, Source{Solve: "race1"}) // name left open
	inner2 := WithSource(fill, Source{Name: "cube/w2"})
	inner2.Emit(RestartEvent{Restarts: 2})

	evs := ring.Events()
	if evs[0].Solve != "race1" || evs[0].Src != "hyqsat/s3" {
		t.Fatalf("nested attribution = %q/%q, want race1/hyqsat/s3", evs[0].Solve, evs[0].Src)
	}
	if evs[1].Solve != "race1" || evs[1].Src != "cube/w2" {
		t.Fatalf("fill attribution = %q/%q, want race1/cube/w2", evs[1].Solve, evs[1].Src)
	}
}

// TestWithSourcePlainTracer: a sink that ignores attribution still receives
// every event emitted through nested scopes.
func TestWithSourcePlainTracer(t *testing.T) {
	var got []Event
	plain := &funcTracer{fn: func(e Event) { got = append(got, e) }}
	scoped := WithSource(plain, Source{Solve: "s1", Name: "x"})
	scoped.Emit(RestartEvent{Restarts: 5})
	nested := WithSource(scoped, Source{Name: "y"})
	nested.Emit(RestartEvent{Restarts: 6})
	if len(got) != 2 {
		t.Fatalf("plain tracer got %d events, want 2", len(got))
	}
}

type funcTracer struct{ fn func(Event) }

func (f *funcTracer) Enabled() bool              { return true }
func (f *funcTracer) Emit(e Event)               { f.fn(e) }
func (f *funcTracer) EmitFrom(_ Source, e Event) { f.fn(e) }

// TestReadJSONLSkipsHeader keeps legacy readers working: ReadTrace keeps the
// header out of the events, and header-less streams read fine.
func TestReadJSONLSkipsHeader(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(RestartEvent{Restarts: 1})
	sink.Flush()
	_, evs, err := ReadTrace(&buf)
	if err != nil || len(evs) != 1 {
		t.Fatalf("events=%d err=%v, want just the restart", len(evs), err)
	}

	legacy := `{"t":"restart","ts":2,"e":{"restarts":1,"conflicts":9}}` + "\n"
	header, evs, err := ReadTrace(strings.NewReader(legacy))
	if err != nil || len(evs) != 1 {
		t.Fatalf("legacy: events=%d err=%v", len(evs), err)
	}
	if header != (HeaderEvent{}) {
		t.Fatalf("legacy trace produced header %+v, want zero", header)
	}
}

// TestGuardedEmissionZeroAllocs is the tentpole overhead gate: a guarded
// emission site through a disabled scoped tracer must not allocate, and the
// scoped wrapper must add no allocations over emitting into the ring
// directly.
func TestGuardedEmissionZeroAllocs(t *testing.T) {
	scopedNop := WithSource(nil, Source{Solve: "s1", Name: "hyqsat"})
	if n := testing.AllocsPerRun(1000, func() {
		if scopedNop.Enabled() {
			scopedNop.Emit(RestartEvent{Restarts: 1})
		}
	}); n != 0 {
		t.Fatalf("disabled scoped emission allocates %v/op", n)
	}

	ring := NewRing(4)
	ev := RestartEvent{Restarts: 1}
	base := testing.AllocsPerRun(1000, func() { ring.Emit(ev) })
	scoped := WithSource(ring, Source{Solve: "s1", Name: "hyqsat"})
	nested := WithSource(scoped, Source{Name: "inner"})
	if n := testing.AllocsPerRun(1000, func() { nested.Emit(ev) }); n > base {
		t.Fatalf("scoped ring emission allocates %v/op, unscoped %v/op", n, base)
	}
}
