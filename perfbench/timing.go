package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/qpu"
)

// qpuStats is what a timing decorator saw: calls, failed calls, the wall
// time callers spent inside Submit, each call's duration, and the device
// time reported through SubmitCosted.
type qpuStats struct {
	calls, errors int64
	busy, shares  time.Duration
	durs          []time.Duration
}

// qpuTimer accumulates qpuStats from concurrent callers, in total and per
// context deadline: a caller whose context carries a unique deadline (a
// service job submitted with a client deadline) can be told apart.
type qpuTimer struct {
	mu         sync.Mutex
	st         qpuStats
	byDeadline map[int64]*qpuStats
}

func (t *qpuTimer) record(deadline time.Time, d, share time.Duration, err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.st.add(d, share, err)
	if deadline.IsZero() {
		return
	}
	if t.byDeadline == nil {
		t.byDeadline = map[int64]*qpuStats{}
	}
	k := deadline.UnixNano()
	if t.byDeadline[k] == nil {
		t.byDeadline[k] = &qpuStats{}
	}
	t.byDeadline[k].add(d, share, err)
}

func (st *qpuStats) add(d, share time.Duration, err error) {
	st.calls++
	if err != nil {
		st.errors++
	}
	st.busy += d
	st.shares += share
	st.durs = append(st.durs, d)
}

// reset forgets everything recorded so far.
func (t *qpuTimer) reset() {
	t.mu.Lock()
	t.st, t.byDeadline = qpuStats{}, nil
	t.mu.Unlock()
}

// snapshot returns a copy of the totals.
func (t *qpuTimer) snapshot() qpuStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.st
	st.durs = append([]time.Duration(nil), st.durs...)
	return st
}

// deadlines returns the per-deadline totals (durations left out), keyed by
// the deadline in Unix nanoseconds.
func (t *qpuTimer) deadlines() map[int64]qpuStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int64]qpuStats, len(t.byDeadline))
	for k, st := range t.byDeadline {
		out[k] = qpuStats{calls: st.calls, errors: st.errors, busy: st.busy, shares: st.shares}
	}
	return out
}

// timedBackend is a qpu.Backend decorator that times every Submit into a
// qpuTimer and, when a span log is attached, records one qpu.submit span per
// call under the given parent span.
type timedBackend struct {
	inner         qpu.Backend
	timer         *qpuTimer
	spans         *spanLog
	trace, parent int64
}

// timedCostedBackend is the decorator over a qpu.CostedBackend: it forwards
// SubmitCosted, so a batching scheduler underneath still charges callers
// their pro-rata device share instead of the solo access time.
type timedCostedBackend struct {
	*timedBackend
	costed qpu.CostedBackend
}

// timeBackend wraps inner. The result implements qpu.CostedBackend exactly
// when inner does.
func timeBackend(inner qpu.Backend, timer *qpuTimer, spans *spanLog, trace, parent int64) qpu.Backend {
	tb := &timedBackend{inner: inner, timer: timer, spans: spans, trace: trace, parent: parent}
	if cb, ok := inner.(qpu.CostedBackend); ok {
		return &timedCostedBackend{timedBackend: tb, costed: cb}
	}
	return tb
}

// Name implements qpu.Backend.
func (b *timedBackend) Name() string { return b.inner.Name() }

// Submit implements qpu.Backend.
func (b *timedBackend) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	start := time.Now()
	rs, err := b.inner.Submit(ctx, ep, reads)
	b.done(ctx, start, 0, err)
	return rs, err
}

// SubmitCosted implements qpu.CostedBackend.
func (b *timedCostedBackend) SubmitCosted(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, time.Duration, error) {
	start := time.Now()
	rs, share, err := b.costed.SubmitCosted(ctx, ep, reads)
	b.done(ctx, start, share, err)
	return rs, share, err
}

func (b *timedBackend) done(ctx context.Context, start time.Time, share time.Duration, err error) {
	end := time.Now()
	deadline, _ := ctx.Deadline()
	b.timer.record(deadline, end.Sub(start), share, err)
	b.spans.add(b.trace, b.spans.newID(), b.parent, "qpu.submit", start, end)
}

// span is one timed call the benchmark made into a layer. Spans of one
// verdict, job or sample request share a trace id; parent 0 marks a root.
type span struct {
	Trace  int64  `json:"trace"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog records
// nothing, so untraced runs pay one nil check per call site.
type spanLog struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// newID reserves a span id (0 on a nil log).
func (l *spanLog) newID() int64 {
	if l == nil {
		return 0
	}
	return l.ids.Add(1)
}

func (l *spanLog) add(trace, id, parent int64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Trace: trace, ID: id, Parent: parent, Name: name,
		Start: start.Sub(l.t0).Nanoseconds(), End: end.Sub(l.t0).Nanoseconds()})
	l.mu.Unlock()
}

// selfTimes returns, per span name, the summed duration minus the part its
// child spans cover, and the number of spans.
func (l *spanLog) selfTimes() (self map[string]time.Duration, count map[string]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := map[int64]int64{}
	for _, s := range l.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range l.spans {
		self[s.Name] += time.Duration(s.End - s.Start - child[s.ID])
		count[s.Name]++
	}
	return self, count
}

// writeFile writes the spans as JSON lines.
func (l *spanLog) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	l.mu.Lock()
	for _, s := range l.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	l.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
