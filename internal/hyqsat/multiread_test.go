package hyqsat

import (
	"math/rand"
	"testing"
	"time"

	"hyqsat/internal/cnf"
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

// TestEmbedCacheCountersConsistent checks the cache bookkeeping: every QA
// call went through exactly one lookup, and repeated queues actually hit.
func TestEmbedCacheCountersConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	f := random3SAT(rng, 20, 85)
	o := simOpts(3)
	o.WarmupIterations = 200 // enough iterations for queue repeats
	r := New(f, o).Solve()
	st := r.Stats
	lookups := st.EmbedCacheHits + st.EmbedCacheMisses
	if lookups < st.QACalls {
		t.Fatalf("cache lookups %d < QA calls %d", lookups, st.QACalls)
	}
	if st.EmbedCacheMisses == 0 && lookups > 0 {
		t.Fatal("cache reported hits with no prior misses")
	}
	if r.Status == sat.Sat && !cnf.FromBools(r.Model[:f.NumVars]).Satisfies(f) {
		t.Fatal("invalid model")
	}
}

// The direct lookup/store/eviction unit tests for the sharded LRU cache live
// in cache_test.go.
