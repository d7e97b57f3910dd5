package qbatch

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/obs"
	"hyqsat/internal/topo"
)

func newTestScheduler(t *testing.T, cfg Config) (*Scheduler, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	cfg.Metrics = reg
	sampler := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 42)
	sampler.Timing = anneal.DWave2000QTiming()
	return New(sampler, topo.DWave2000Q(), cfg), reg
}

func sameReadSet(a, b anneal.ReadSet) bool {
	if a.Best != b.Best || len(a.Samples) != len(b.Samples) {
		return false
	}
	for i := range a.Samples {
		x, y := a.Samples[i], b.Samples[i]
		if x.HardwareEnergy != y.HardwareEnergy || x.BrokenChains != y.BrokenChains {
			return false
		}
		if len(x.NodeValues) != len(y.NodeValues) {
			return false
		}
		for k, v := range x.NodeValues {
			if w, ok := y.NodeValues[k]; !ok || w != v {
				return false
			}
		}
	}
	return true
}

// TestSchedulerConcurrentDeterminism is the acceptance-criterion test: k
// concurrent requests served through the batching scheduler return read
// sets bit-identical to sequential single-request sampling at the same
// seeds. Batch composition order is scheduling-dependent, so the check is a
// perfect matching: each request's result must equal the solo result of its
// problem at exactly one call index, and no call index is used twice.
// Meaningful under -race.
func TestSchedulerConcurrentDeterminism(t *testing.T) {
	g := topo.DWave2000Q()
	const kMembers = 6
	const reads = 3
	eps := make([]*anneal.EmbeddedProblem, kMembers)
	for i := range eps {
		eps[i] = memberProblem(t, g, int64(100+i), 1+i%3, 4+i%4)
	}

	// Reference: for each (problem, call index) pair, the read set a solo
	// sampler with the same seed produces — burning earlier call indices on
	// a throwaway problem.
	ref := make([][]anneal.ReadSet, kMembers)
	for i := range eps {
		ref[i] = make([]anneal.ReadSet, kMembers)
		for call := 0; call < kMembers; call++ {
			s := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 42)
			for burn := 0; burn < call; burn++ {
				s.Sample(eps[i], 1)
			}
			ref[i][call] = s.Sample(eps[i], reads)
		}
	}

	sched, reg := newTestScheduler(t, Config{Window: 200 * time.Millisecond, MaxMembers: kMembers})
	results := make([]anneal.ReadSet, kMembers)
	shares := make([]time.Duration, kMembers)
	var wg sync.WaitGroup
	for i := 0; i < kMembers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, share, err := sched.SubmitCosted(context.Background(), eps[i], reads)
			if err != nil {
				t.Errorf("member %d: %v", i, err)
				return
			}
			results[i] = rs
			shares[i] = share
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	usedCall := map[int]int{}
	for i := range results {
		match := -1
		for call := 0; call < kMembers; call++ {
			if sameReadSet(results[i], ref[i][call]) {
				if match >= 0 {
					t.Fatalf("member %d matches both call %d and %d", i, match, call)
				}
				match = call
			}
		}
		if match < 0 {
			t.Fatalf("member %d matches no sequential solo sampling", i)
		}
		if prev, dup := usedCall[match]; dup {
			t.Fatalf("call index %d claimed by members %d and %d", match, prev, i)
		}
		usedCall[match] = i
	}

	// The window was wide open and the batch closed on MaxMembers, so all k
	// members shared one program and their pro-rata shares sum to one
	// program's access time.
	if got := reg.Counter("batch_programs").Value(); got != 1 {
		t.Fatalf("ran %d programs, want 1", got)
	}
	if got := reg.Counter("batch_members").Value(); got != kMembers {
		t.Fatalf("batched %d members, want %d", got, kMembers)
	}
	var shareSum time.Duration
	for _, s := range shares {
		shareSum += s
	}
	tm := anneal.DWave2000QTiming()
	if want := tm.AccessTime(reads); shareSum != want {
		t.Fatalf("shares sum to %v, want one program's %v", shareSum, want)
	}
	if saved := reg.Counter("batch_device_saved_ns").Value(); saved <= 0 {
		t.Fatalf("batching saved %dns of device time, want > 0", saved)
	}
}

// TestSchedulerBatchingDisabled: a negative window turns the scheduler into
// a plain per-request backend charging full access time.
func TestSchedulerBatchingDisabled(t *testing.T) {
	g := topo.DWave2000Q()
	sched, reg := newTestScheduler(t, Config{Window: -1})
	if sched.Batching() {
		t.Fatal("Batching() true with a negative window")
	}
	ep := memberProblem(t, g, 201, 2, 6)
	tm := anneal.DWave2000QTiming()
	for i := 0; i < 3; i++ {
		rs, share, err := sched.SubmitCosted(context.Background(), ep, 4)
		if err != nil || len(rs.Samples) != 4 {
			t.Fatalf("solo submit %d: reads=%d err=%v", i, len(rs.Samples), err)
		}
		if share != tm.AccessTime(4) {
			t.Fatalf("solo submit charged %v, want full %v", share, tm.AccessTime(4))
		}
	}
	if got := reg.Counter("batch_solo").Value(); got != 3 {
		t.Fatalf("batch_solo = %d, want 3", got)
	}
	if saved := reg.Counter("batch_device_saved_ns").Value(); saved != 0 {
		t.Fatalf("solo programs saved %dns, want 0", saved)
	}
}

// TestSchedulerRefusesForeignTopology: the typed refusal propagates through
// SubmitCosted before any batching, and the metric counts it.
func TestSchedulerRefusesForeignTopology(t *testing.T) {
	g := topo.DWave2000Q()
	sched, reg := newTestScheduler(t, Config{})
	ep := memberProblem(t, g, 211, 1, 3)
	ep.Graph = topo.AdvantagePegasus()
	_, _, err := sched.SubmitCosted(context.Background(), ep, 1)
	var pe *PackError
	if !errors.As(err, &pe) || pe.Reason != ReasonTopology {
		t.Fatalf("SubmitCosted(pegasus problem) = %v, want *PackError{ReasonTopology}", err)
	}
	if got := reg.Counter("batch_refused_topology").Value(); got != 1 {
		t.Fatalf("batch_refused_topology = %d, want 1", got)
	}
}

// TestSchedulerCancelledContext: a context cancelled before submission is
// honoured without running any program.
func TestSchedulerCancelledContext(t *testing.T) {
	g := topo.DWave2000Q()
	sched, reg := newTestScheduler(t, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := sched.SubmitCosted(ctx, memberProblem(t, g, 221, 1, 3), 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := reg.Counter("batch_programs").Value(); got != 0 {
		t.Fatalf("cancelled submit still ran %d programs", got)
	}
}

// TestSchedulerOverflowSplitsPrograms: more members than MaxMembers split
// into several programs, every request still served.
func TestSchedulerOverflowSplitsPrograms(t *testing.T) {
	g := topo.DWave2000Q()
	sched, reg := newTestScheduler(t, Config{Window: 200 * time.Millisecond, MaxMembers: 2})
	const n = 5
	eps := make([]*anneal.EmbeddedProblem, n)
	for i := range eps {
		eps[i] = memberProblem(t, g, int64(300+i), 1, 3)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rs, _, err := sched.SubmitCosted(context.Background(), eps[i], 2)
			if err == nil && len(rs.Samples) != 2 {
				err = errors.New("short read set")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("member %d: %v", i, err)
		}
	}
	if members := reg.Counter("batch_members").Value(); members != n {
		t.Fatalf("served %d members, want %d", members, n)
	}
	programs := reg.Counter("batch_programs").Value()
	if programs < 2 {
		t.Fatalf("MaxMembers=2 with %d requests ran %d programs, want >= 2", n, programs)
	}
}

// TestSchedulerBatchEventEmitted: one qa_batch trace event per program,
// with the device-time bookkeeping consistent.
func TestSchedulerBatchEventEmitted(t *testing.T) {
	g := topo.DWave2000Q()
	var sink captureTracer
	reg := obs.NewRegistry()
	sampler := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 42)
	sched := New(sampler, g, Config{Window: -1, Trace: &sink, Metrics: reg})
	ep := memberProblem(t, g, 231, 1, 3)
	if _, _, err := sched.SubmitCosted(context.Background(), ep, 2); err != nil {
		t.Fatal(err)
	}
	if len(sink.events) != 1 {
		t.Fatalf("got %d batch events, want 1", len(sink.events))
	}
	be, ok := sink.events[0].(obs.BatchEvent)
	if !ok {
		t.Fatalf("event is %T, want BatchEvent", sink.events[0])
	}
	tm := anneal.DWave2000QTiming()
	if be.Members != 1 || be.TotalReads != 2 || be.ProgramReads != 2 {
		t.Fatalf("BatchEvent = %+v, want 1 member, 2 reads", be)
	}
	if be.DeviceNs != tm.AccessTime(2).Nanoseconds() || be.DeviceSavedNs != 0 {
		t.Fatalf("BatchEvent device accounting = %+v", be)
	}
}

// captureTracer records emitted events in order.
type captureTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (c *captureTracer) Enabled() bool { return true }
func (c *captureTracer) Emit(e obs.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events = append(c.events, e)
}

func (c *captureTracer) EmitFrom(_ obs.Source, e obs.Event) { c.Emit(e) }
