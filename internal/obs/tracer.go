package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Tracer receives solve events. Emission sites MUST guard event construction
// with Enabled() — that is what keeps disabled tracing allocation-free:
//
//	if t != nil && t.Enabled() {
//		t.Emit(obs.ConflictEvent{...})
//	}
//
// Implementations must be safe for concurrent use: the parallel sampler and
// the cube-and-conquer workers emit from multiple goroutines.
type Tracer interface {
	// Enabled reports whether Emit does anything. Callers use it to skip
	// event construction entirely on hot paths.
	Enabled() bool
	// Emit records one unattributed event. The event must not be mutated
	// afterwards.
	Emit(e Event)
	// EmitFrom records one event attributed to src (see WithSource): the
	// source travels by value alongside the event, so scoped emission
	// needs no wrapper event and no per-event allocation.
	EmitFrom(src Source, e Event)
}

// Nop returns the disabled tracer: Enabled() is false and Emit is a no-op.
// It is a zero-size value, so guarded emission sites add no allocations and
// only a predictable branch to the hot path.
func Nop() Tracer { return nopTracer{} }

type nopTracer struct{}

func (nopTracer) Enabled() bool          { return false }
func (nopTracer) Emit(Event)             {}
func (nopTracer) EmitFrom(Source, Event) {}

// Tee composes tracers: events go to every enabled tracer. Nil and disabled
// entries are dropped; with none left, Tee returns the Nop tracer, and a
// single survivor is returned unwrapped.
func Tee(tracers ...Tracer) Tracer {
	var live multiTracer
	for _, t := range tracers {
		if t != nil && t.Enabled() {
			live = append(live, t)
		}
	}
	switch len(live) {
	case 0:
		return Nop()
	case 1:
		return live[0]
	}
	return live
}

type multiTracer []Tracer

func (m multiTracer) Enabled() bool { return true }

func (m multiTracer) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

func (m multiTracer) EmitFrom(src Source, e Event) {
	for _, t := range m {
		t.EmitFrom(src, e)
	}
}

// Stamped is the JSONL envelope of one event: the type tag, a monotonic
// timestamp (nanoseconds since the sink was created), the attribution fields
// (empty and omitted for unattributed events — see Source and WithSource),
// and the event payload.
type Stamped struct {
	T     string `json:"t"`
	TS    int64  `json:"ts"`
	Solve string `json:"solve,omitempty"`
	Src   string `json:"src,omitempty"`
	E     Event  `json:"e"`
}

// Source returns the attribution of the envelope as a Source value.
func (s Stamped) Source() Source { return Source{Solve: s.Solve, Name: s.Src} }

// JSONLSink writes one JSON object per event to an io.Writer, buffered.
// Safe for concurrent use. Call Flush (or Close) before reading the output.
//
// The first record of the stream is a HeaderEvent carrying the trace schema
// version and the wall-clock time the sink was created, so offline tooling
// can align traces recorded by different processes. ReadTrace tolerates
// streams without the header (traces recorded before it existed).
type JSONLSink struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	start time.Time
	err   error
}

// NewJSONLSink returns a sink writing the JSONL event stream to w, starting
// with the schema header record.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw), start: time.Now()}
	s.err = s.enc.Encode(Stamped{T: headerKind, TS: 0, E: HeaderEvent{
		Schema:  TraceSchemaVersion,
		StartUs: s.start.UnixMicro(),
	}})
	return s
}

// Enabled implements Tracer.
func (s *JSONLSink) Enabled() bool { return true }

// Emit implements Tracer.
func (s *JSONLSink) Emit(e Event) { s.EmitFrom(Source{}, e) }

// EmitFrom implements Tracer.
func (s *JSONLSink) EmitFrom(src Source, e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(Stamped{
		T:     e.Kind(),
		TS:    time.Since(s.start).Nanoseconds(),
		Solve: src.Solve,
		Src:   src.Name,
		E:     e,
	})
}

// Flush drains the buffer and returns the first error the sink hit.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Ring is the flight recorder: a fixed-capacity ring buffer keeping the last
// N events, dumpable as JSONL when a solve ends badly (UNSAT, timeout,
// panic). Safe for concurrent use.
type Ring struct {
	mu    sync.Mutex
	buf   []Stamped
	next  int
	full  bool
	total int64
	start time.Time
}

// NewRing returns a flight recorder holding the last n events (n ≥ 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]Stamped, n), start: time.Now()}
}

// Enabled implements Tracer.
func (r *Ring) Enabled() bool { return true }

// Emit implements Tracer.
func (r *Ring) Emit(e Event) { r.EmitFrom(Source{}, e) }

// EmitFrom implements Tracer.
func (r *Ring) EmitFrom(src Source, e Event) {
	r.mu.Lock()
	r.buf[r.next] = Stamped{
		T:     e.Kind(),
		TS:    time.Since(r.start).Nanoseconds(),
		Solve: src.Solve,
		Src:   src.Name,
		E:     e,
	}
	r.next++
	r.total++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

// Len returns the number of events currently held (≤ capacity).
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}

// Total returns the number of events ever emitted into the ring.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Events returns the held events, oldest first.
func (r *Ring) Events() []Stamped {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eventsLocked()
}

func (r *Ring) eventsLocked() []Stamped {
	if !r.full {
		return append([]Stamped(nil), r.buf[:r.next]...)
	}
	out := make([]Stamped, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// Dump writes the held events to w as JSONL, oldest first.
func (r *Ring) Dump(w io.Writer) error {
	r.mu.Lock()
	events := r.eventsLocked()
	r.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
