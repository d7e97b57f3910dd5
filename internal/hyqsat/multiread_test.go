package hyqsat

import (
	"math/rand"
	"testing"
	"time"

	"hyqsat/internal/cnf"
	"hyqsat/internal/obs"
	"hyqsat/internal/sat"
)

// TestMultiReadDeterministicAcrossWorkers pins the solver-level
// reproducibility contract: with multi-read sampling enabled, the verdict,
// model, and every hybrid counter are identical at any worker count.
func TestMultiReadDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := random3SAT(rng, 30, 125)
	run := func(workers int) Result {
		o := simOpts(5)
		o.NumReads = 6
		s := New(f.Copy(), o)
		s.sampler.Workers = workers
		return s.Solve()
	}
	ref := run(1)
	for _, workers := range []int{2, 8} {
		got := run(workers)
		if got.Status != ref.Status {
			t.Fatalf("workers=%d: status %v, serial %v", workers, got.Status, ref.Status)
		}
		if len(got.Model) != len(ref.Model) {
			t.Fatalf("workers=%d: model length differs", workers)
		}
		for i := range got.Model {
			if got.Model[i] != ref.Model[i] {
				t.Fatalf("workers=%d: model differs at var %d", workers, i)
			}
		}
		gs, rs := got.Stats, ref.Stats
		if gs.QACalls != rs.QACalls || gs.QAReads != rs.QAReads ||
			gs.WarmupIterations != rs.WarmupIterations ||
			gs.EmbedCacheHits != rs.EmbedCacheHits ||
			gs.EmbedCacheMisses != rs.EmbedCacheMisses ||
			gs.Strategy1Hits != rs.Strategy1Hits ||
			gs.Strategy2Hits != rs.Strategy2Hits ||
			gs.Strategy3Hits != rs.Strategy3Hits ||
			gs.Strategy4Hits != rs.Strategy4Hits ||
			gs.BrokenChains != rs.BrokenChains {
			t.Fatalf("workers=%d: hybrid counters differ from serial run:\n%+v\nvs\n%+v",
				workers, gs, rs)
		}
	}
}

// TestMultiReadCountersAndDeviceTime checks that reads are counted and the
// modelled device time charges a full multi-read access (programming once,
// then NumReads anneal+readout cycles) per QA call.
func TestMultiReadCountersAndDeviceTime(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := random3SAT(rng, 25, 100)
	o := simOpts(7)
	o.NumReads = 4
	r := New(f, o).Solve()
	st := r.Stats
	if st.QACalls == 0 {
		t.Fatal("no QA calls in a hybrid solve")
	}
	if st.QAReads != int64(st.QACalls)*4 {
		t.Fatalf("QAReads = %d with %d calls at NumReads=4, want %d",
			st.QAReads, st.QACalls, st.QACalls*4)
	}
	want := time.Duration(st.QACalls) * o.Timing.AccessTime(4)
	if st.QADevice != want {
		t.Fatalf("QADevice = %v, want %d×AccessTime(4) = %v", st.QADevice, st.QACalls, want)
	}
}

// TestSingleReadDeviceTimeUnchanged pins the default: NumReads unset charges
// exactly the paper's single-sample access per call, as before.
func TestSingleReadDeviceTimeUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	f := random3SAT(rng, 20, 80)
	o := simOpts(9)
	r := New(f, o).Solve()
	st := r.Stats
	if st.QACalls == 0 {
		t.Fatal("no QA calls in a hybrid solve")
	}
	if st.QAReads != int64(st.QACalls) {
		t.Fatalf("QAReads = %d, want one per call (%d)", st.QAReads, st.QACalls)
	}
	if want := time.Duration(st.QACalls) * o.Timing.SampleTime(); st.QADevice != want {
		t.Fatalf("QADevice = %v, want %v", st.QADevice, want)
	}
}

// TestEmbedCacheCountersConsistent checks the counters kept under the
// former embedding cache's names: misses count exactly the frontend passes
// that reached embedding — one per QA call, degraded access or pass that
// embedded nothing, as the trace records them — and hits stay 0.
func TestEmbedCacheCountersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	f := random3SAT(rng, 20, 85)
	o := simOpts(3)
	o.WarmupIterations = 200 // long enough to repeat clause queues
	ring := obs.NewRing(1 << 16)
	o.Trace = ring
	r := New(f, o).Solve()
	st := r.Stats
	if int64(ring.Len()) != ring.Total() {
		t.Fatalf("trace ring kept %d of %d events", ring.Len(), ring.Total())
	}
	passes, empty := 0, 0
	for _, ev := range ring.Events() {
		if e, ok := ev.E.(obs.EmbedEvent); ok {
			passes++
			if e.Embedded == 0 {
				empty++
			}
			if e.CacheHit {
				t.Fatalf("iteration %d: embed event reports a cache hit", e.Iteration)
			}
		}
	}
	if st.EmbedCacheHits != 0 {
		t.Fatalf("EmbedCacheHits = %d, want 0", st.EmbedCacheHits)
	}
	if st.EmbedCacheMisses != passes || st.QACalls+int(st.QADegraded)+empty != passes {
		t.Fatalf("misses %d, QA calls %d, degraded %d, empty passes %d; want misses = %d embed events = QA calls + degraded + empty",
			st.EmbedCacheMisses, st.QACalls, st.QADegraded, empty, passes)
	}
	if r.Status == sat.Sat && !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
		t.Fatal("invalid model")
	}
}
