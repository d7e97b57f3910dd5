package qbatch

import (
	"context"
	"runtime"
	"sync"
	"time"

	"hyqsat/internal/anneal"
	"hyqsat/internal/obs"
	"hyqsat/internal/topo"
)

// DefaultWindow is the batching window: how long the first request of a
// batch waits for co-tenants before the program runs. It is sized to the
// device's own ProgrammingTime scale — a wait shorter than one program
// costs latency nobody notices against a 131µs access.
const DefaultWindow = 100 * time.Microsecond

// DefaultMaxMembers bounds how many requests one device program may serve.
// The chip itself bounds it tighter (tiles run out first for non-trivial
// members); this cap keeps the collection phase from starving the queue.
const DefaultMaxMembers = 64

// Config configures a Scheduler.
type Config struct {
	// Window is the collection window. 0 selects DefaultWindow; a negative
	// value disables batching entirely (every request runs as its own
	// program — the baseline the throughput bench compares against).
	Window time.Duration
	// MaxMembers caps members per program; the window closes early when
	// reached. 0 selects DefaultMaxMembers.
	MaxMembers int
	// Timing is the device timing model used for accounting. Zero selects
	// the sampler's model, or the paper's D-Wave 2000Q model if the sampler
	// has none.
	Timing anneal.TimingModel
	// Pace, when set, serializes programs on a virtual device and holds it
	// for each program's modelled access time. The emulated sampler runs at
	// CPU speed; pacing restores the shared-serial-device contention that
	// batching exists to relieve, which is what the serve throughput bench
	// measures. Off in normal daemon operation.
	Pace bool
	// Trace receives one BatchEvent per device program when non-nil.
	Trace obs.Tracer
	// Metrics receives batch_* counters when non-nil.
	Metrics *obs.Registry
}

// request is one in-flight Submit: its inputs, and outputs filled by the
// leader before done is closed.
type request struct {
	ep    *anneal.EmbeddedProblem
	reads int
	done  chan struct{}
	rs    anneal.ReadSet
	share time.Duration
}

// Scheduler is a batching qpu.Backend over an in-process sampler: concurrent
// Submit calls arriving within one window are co-tiled onto disjoint regions
// of the topology and served by a single batched device access, each paying
// a pro-rata share of the one program's modelled access time.
//
// The collection protocol is leaderless-goroutine-free: the first request of
// a window becomes the leader, waits out the window (or until the batch
// fills) on its own goroutine, then runs the programs and distributes
// results. Followers just wait on their request. No background goroutine
// exists, so a drained daemon leaks nothing.
type Scheduler struct {
	sampler *anneal.Sampler
	timing  anneal.TimingModel
	window  time.Duration
	maxMem  int
	pace    bool
	trace   obs.Tracer

	packer *Packer // nil → batching disabled (solo programs only)
	pool   sync.Pool

	mu         sync.Mutex
	collecting bool
	pending    []*request
	full       chan struct{}

	deviceMu sync.Mutex // pace-mode virtual device

	mPrograms *obs.Counter
	mMembers  *obs.Counter
	mSolo     *obs.Counter
	mRefused  *obs.Counter
	mDeviceNs *obs.Counter
	mSavedNs  *obs.Counter
	mWindowNs *obs.Counter
}

// New builds a scheduler over sampler and the hardware graph g. A nil g, or
// one the packer cannot index (no tiles), disables co-tiling: the scheduler
// still serves every request, one program each.
func New(sampler *anneal.Sampler, g topo.Topology, cfg Config) *Scheduler {
	s := &Scheduler{
		sampler: sampler,
		timing:  cfg.Timing,
		window:  cfg.Window,
		maxMem:  cfg.MaxMembers,
		pace:    cfg.Pace,
		trace:   cfg.Trace,
	}
	if s.timing == (anneal.TimingModel{}) {
		s.timing = sampler.Timing
	}
	if s.timing == (anneal.TimingModel{}) {
		s.timing = anneal.DWave2000QTiming()
	}
	if s.window == 0 {
		s.window = DefaultWindow
	}
	if s.maxMem <= 0 {
		s.maxMem = DefaultMaxMembers
	}
	if g != nil {
		if p, err := NewPacker(g); err == nil {
			s.packer = p
		}
	}
	s.pool.New = func() any { return s.packer.NewPacking() }
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.mPrograms = reg.Counter("batch_programs")
	s.mMembers = reg.Counter("batch_members")
	s.mSolo = reg.Counter("batch_solo")
	s.mRefused = reg.Counter("batch_refused_topology")
	s.mDeviceNs = reg.Counter("batch_device_ns")
	s.mSavedNs = reg.Counter("batch_device_saved_ns")
	s.mWindowNs = reg.Counter("batch_window_ns")
	return s
}

// Name implements qpu.Backend.
func (s *Scheduler) Name() string { return "qbatch" }

// Batching reports whether requests can actually be co-tiled (a window is
// open and the topology is packable).
func (s *Scheduler) Batching() bool {
	return s.packer != nil && s.window >= 0 && s.maxMem > 1
}

// Submit implements qpu.Backend.
func (s *Scheduler) Submit(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, error) {
	rs, _, err := s.SubmitCosted(ctx, ep, reads)
	return rs, err
}

// SubmitCosted serves one sample request and returns, alongside the read
// set, the modelled device time the caller should be charged: the pro-rata
// share of the batched program that served it (a solo program charges the
// full access time). Requests embedded for a different topology than the
// scheduler's are refused with a *PackError (ReasonTopology) before any
// batching; requests that merely cannot be relocated (ReasonLayout) or do
// not fit the remaining chip (ReasonCapacity) are still served, as their
// own program.
//
// Cancellation: ctx is honoured while waiting for the batch window. Once a
// request has joined a window its program runs regardless — a programmed
// anneal, like a real device access, cannot be recalled — so a caller that
// gives up early still owes its share; SubmitCosted then reports the share
// with ctx.Err().
func (s *Scheduler) SubmitCosted(ctx context.Context, ep *anneal.EmbeddedProblem, reads int) (anneal.ReadSet, time.Duration, error) {
	if reads <= 0 {
		reads = 1
	}
	if s.packer != nil {
		if err := s.packer.Compatible(ep); err != nil {
			s.mRefused.Inc()
			return anneal.ReadSet{}, 0, err
		}
	}
	if err := ctx.Err(); err != nil {
		return anneal.ReadSet{}, 0, err
	}
	if !s.Batching() {
		req := &request{ep: ep, reads: reads}
		s.runProgram([]*request{req}, 0)
		return req.rs, req.share, nil
	}

	req := &request{ep: ep, reads: reads, done: make(chan struct{})}
	s.mu.Lock()
	if s.collecting {
		s.pending = append(s.pending, req)
		if len(s.pending) == s.maxMem {
			close(s.full)
		}
		s.mu.Unlock()
		select {
		case <-req.done:
			return req.rs, req.share, nil
		case <-ctx.Done():
			// The batch runs (and charges) this member anyway; report the
			// share so accounting stays honest even on abandonment.
			<-req.done
			return anneal.ReadSet{}, req.share, ctx.Err()
		}
	}

	// Leader: open a window, collect followers, run the batch.
	s.collecting = true
	s.full = make(chan struct{})
	full := s.full
	s.pending = append(s.pending, req)
	s.mu.Unlock()

	start := time.Now()
	waitWindow(start.Add(s.window), full)
	waited := time.Since(start)
	s.mWindowNs.Add(waited.Nanoseconds())

	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	s.collecting = false
	s.mu.Unlock()

	s.runBatch(batch, waited)
	return req.rs, req.share, nil
}

// spinSlack is how close to a window's deadline the leader stops blocking on
// a timer and starts yield-spinning. In a mostly idle Go process a timer
// fires on the netpoller's ≈1 ms tick, so a 100 µs timer returns after about
// a millisecond; a timer is only trusted to wake the leader this far early.
const spinSlack = 2 * time.Millisecond

// waitWindow returns at deadline, or as soon as full is closed. More than
// spinSlack ahead of the deadline it blocks on a timer (or full); the rest
// it yield-spins: check full without blocking, compare the clock with the
// deadline, runtime.Gosched.
//
// Cost: the spin keeps one goroutine runnable for the last spinSlack of a
// window, at most the whole window when it is shorter (100 µs under
// DefaultWindow). Only the leader of the open window calls this and one
// window collects at a time, so at most one goroutine spins, for at most
// one window per device program; Gosched hands its P to any other runnable
// goroutine on every pass.
func waitWindow(deadline time.Time, full <-chan struct{}) {
	if d := time.Until(deadline) - spinSlack; d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-full:
			timer.Stop()
			return
		}
	}
	for {
		select {
		case <-full:
			return
		default:
		}
		if !time.Now().Before(deadline) {
			return
		}
		runtime.Gosched()
	}
}

// runBatch groups the collected requests into device programs — greedily
// co-tiling onto one packing until the chip fills, then flushing and
// starting the next program — and runs each group. It runs only when
// Batching holds, so the packer exists. window is the leader's wait, carried
// by the first program's trace event.
func (s *Scheduler) runBatch(batch []*request, window time.Duration) {
	packing := s.pool.Get().(*Packing)
	defer s.pool.Put(packing)
	packing.Reset()
	var group []*request
	run := func(members []*request) {
		s.runProgram(members, window)
		window = 0
	}
	flush := func() {
		if len(group) > 0 {
			run(group)
			group = group[:0]
			packing.Reset()
		}
	}
	for _, r := range batch {
		if len(group) >= s.maxMem {
			flush()
		}
		_, err := packing.Add(r.ep)
		if err != nil {
			if pe, ok := err.(*PackError); ok && pe.Reason == ReasonCapacity && len(group) > 0 {
				// Chip full: flush this program and retry on an empty chip.
				flush()
				_, err = packing.Add(r.ep)
			}
		}
		if err != nil {
			// Unrelocatable (or still over capacity alone): its own program
			// at its original placement. Topology refusals cannot reach here
			// — SubmitCosted rejects them before the window.
			run([]*request{r})
			continue
		}
		group = append(group, r)
	}
	flush()
}

// runProgram runs one device program serving the given members: one batched
// sampler access, pro-rata cost shares, metrics, trace, and result
// distribution. window is the batching wait the trace event reports.
func (s *Scheduler) runProgram(group []*request, window time.Duration) {
	k := len(group)
	eps := make([]*anneal.EmbeddedProblem, k)
	reads := make([]int, k)
	activeQubits := 0
	totalReads := 0
	maxReads := 0
	for i, r := range group {
		eps[i] = r.ep
		reads[i] = r.reads
		activeQubits += len(r.ep.Qubits)
		totalReads += r.reads
		if r.reads > maxReads {
			maxReads = r.reads
		}
	}
	total := s.timing.BatchAccessTime(reads)

	var sets []anneal.ReadSet
	if s.pace {
		// Pace mode: the virtual device is serial and busy for the modelled
		// program duration — the contention regime of a real shared QPU.
		s.deviceMu.Lock()
		sets = s.sampler.SampleBatch(eps, reads)
		time.Sleep(total)
		s.deviceMu.Unlock()
	} else {
		sets = s.sampler.SampleBatch(eps, reads)
	}

	shares := s.timing.SplitAccessTime(reads)
	var soloSum time.Duration
	for _, r := range reads {
		soloSum += s.timing.AccessTime(r)
	}
	s.mPrograms.Inc()
	s.mMembers.Add(int64(k))
	if k == 1 {
		s.mSolo.Inc()
	}
	s.mDeviceNs.Add(total.Nanoseconds())
	s.mSavedNs.Add((soloSum - total).Nanoseconds())
	if s.trace != nil && s.trace.Enabled() {
		s.trace.Emit(obs.BatchEvent{
			Members:       k,
			TotalReads:    totalReads,
			ProgramReads:  maxReads,
			ActiveQubits:  activeQubits,
			DeviceNs:      total.Nanoseconds(),
			DeviceSavedNs: (soloSum - total).Nanoseconds(),
			WindowNs:      window.Nanoseconds(),
		})
	}
	for i, r := range group {
		r.rs = sets[i]
		r.share = shares[i]
		if r.done != nil {
			close(r.done)
		}
	}
}
