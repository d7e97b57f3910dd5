package obs

import (
	"strconv"
	"sync/atomic"
)

// Source attributes an event stream: which solve it belongs to and which
// emitter produced it. Concurrent emitters (cube workers, the QPU retry
// layer) share one sink; the source is what lets a reader
// demultiplex their interleaved events back into per-emitter streams.
//
// Both fields are plain strings carried in the Stamped envelope ("solve" and
// "src"); empty fields are omitted from the JSONL output, so unattributed
// traces look exactly like pre-attribution ones.
type Source struct {
	// Solve identifies one logical solve (one CLI invocation, one
	// cube-and-conquer run). Allocate with NextSolveID.
	Solve string
	// Name identifies the emitter within the solve: "hyqsat", "minisat", a
	// cube worker ("cube/w3"), the QPU access layer ("qpu"), ...
	Name string
}

// solveCounter backs NextSolveID.
var solveCounter atomic.Int64

// NextSolveID returns a fresh process-unique solve identifier ("s1", "s2",
// ...). Traces from different processes are told apart by the header
// record's wall-clock start, not by the solve id.
func NextSolveID() string {
	return "s" + strconv.FormatInt(solveCounter.Add(1), 10)
}

// WithSource returns a tracer that attributes every event emitted through it
// to src before forwarding to t. When t is nil or disabled, WithSource
// returns the Nop tracer, so scoping keeps the disabled path allocation-free.
//
// Scopes nest, and the outer scope wins: a field set by an enclosing
// WithSource (closer to the sink) overrides the same field set by an inner
// one, while unset fields are filled from the inner scope. A cube run that
// scopes each worker's tracer with {Solve: runID, Name: "cube/w3"} therefore
// overrides the per-solver "hyqsat" source its QA warm-ups install on
// themselves, and a bare CLI solve keeps the solver's own attribution.
func WithSource(t Tracer, src Source) Tracer {
	if t == nil || !t.Enabled() {
		return Nop()
	}
	return &scopedTracer{inner: t, src: src}
}

// scopedTracer forwards events with its source attached through the inner
// tracer's EmitFrom, so scopes nest.
type scopedTracer struct {
	inner Tracer
	src   Source
}

// Enabled implements Tracer: a scoped tracer is only constructed around an
// enabled inner tracer.
func (s *scopedTracer) Enabled() bool { return true }

// Emit implements Tracer.
func (s *scopedTracer) Emit(e Event) { s.inner.EmitFrom(s.src, e) }

// EmitFrom implements Tracer: src comes from an inner (closer to the
// emitter) scope, so this scope's fields take precedence and the inner ones
// fill the blanks.
func (s *scopedTracer) EmitFrom(src Source, e Event) {
	merged := s.src
	if merged.Solve == "" {
		merged.Solve = src.Solve
	}
	if merged.Name == "" {
		merged.Name = src.Name
	}
	s.inner.EmitFrom(merged, e)
}
