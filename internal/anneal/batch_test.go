package anneal

import (
	"testing"
	"time"

	"hyqsat/internal/obs"
)

// oracleReadSet is the read set member i of a batch must return, built one
// read at a time without any fan-out: read j draws from the (seed, call, j)
// stream of a fresh scratch, and the best read is the earliest of lowest
// energy.
func oracleReadSet(s *Sampler, ep *EmbeddedProblem, call int64, reads int) ReadSet {
	if reads <= 0 {
		reads = 1
	}
	rs := ReadSet{Samples: make([]Sample, reads)}
	for j := range rs.Samples {
		var scr Scratch
		s.sampleRead(ep, call, j, &scr, &rs.Samples[j])
		if rs.Samples[j].HardwareEnergy < rs.Samples[rs.Best].HardwareEnergy {
			rs.Best = j
		}
	}
	return rs
}

// TestSampleBatchBitIdenticalToSequentialSample is the batching determinism
// contract: for the same sampler seed, SampleBatch(eps, reads) returns, per
// member, exactly the read set of the per-read oracle at the member's call
// index — which is also what a sequence of solo Sample calls returns, Sample
// being a one-member batch: same values, same energies, same chain breaks,
// same best index. This is what lets the qbatch scheduler coalesce tenant
// requests without changing any tenant's observable results.
func TestSampleBatchBitIdenticalToSequentialSample(t *testing.T) {
	eps := []*EmbeddedProblem{
		testEmbeddedProblem(t, 21, 6),
		testEmbeddedProblem(t, 22, 12),
		testEmbeddedProblem(t, 23, 3),
		testEmbeddedProblem(t, 24, 9),
	}
	reads := []int{4, 1, 7, 0} // 0 exercises the clamp-to-1 path

	for _, workers := range []int{1, 4} {
		oracle := NewSampler(DefaultSchedule(), DWave2000QNoise, 42)
		var want []ReadSet
		for i, ep := range eps {
			want = append(want, oracleReadSet(oracle, ep, int64(i), reads[i]))
		}

		batched := NewSampler(DefaultSchedule(), DWave2000QNoise, 42)
		batched.Workers = workers
		got := batched.SampleBatch(eps, reads)
		if len(got) != len(eps) {
			t.Fatalf("workers=%d: got %d read sets, want %d", workers, len(got), len(eps))
		}
		for i := range got {
			if got[i].Best != want[i].Best {
				t.Fatalf("workers=%d member %d: best %d, oracle best %d", workers, i, got[i].Best, want[i].Best)
			}
			if len(got[i].Samples) != len(want[i].Samples) {
				t.Fatalf("workers=%d member %d: %d reads, oracle %d", workers, i, len(got[i].Samples), len(want[i].Samples))
			}
			for j := range got[i].Samples {
				if !sameSample(got[i].Samples[j], want[i].Samples[j]) {
					t.Fatalf("workers=%d member %d read %d differs from the oracle", workers, i, j)
				}
			}
		}
	}
}

// TestSampleBatchAdvancesCallCounter pins that a k-member batch consumes k
// call indices, so samplers interleaving batched and solo calls keep their
// per-call RNG streams disjoint.
func TestSampleBatchAdvancesCallCounter(t *testing.T) {
	ep := testEmbeddedProblem(t, 25, 6)
	eps := []*EmbeddedProblem{ep, ep, ep}

	solo := NewSampler(DefaultSchedule(), DWave2000QNoise, 9)
	for i := 0; i < 3; i++ {
		solo.Sample(ep, 2)
	}
	want := solo.Sample(ep, 2)

	batched := NewSampler(DefaultSchedule(), DWave2000QNoise, 9)
	batched.SampleBatch(eps, []int{2, 2, 2})
	got := batched.Sample(ep, 2)

	for j := range want.Samples {
		if !sameSample(got.Samples[j], want.Samples[j]) {
			t.Fatalf("read %d after batch differs from read after 3 solo calls", j)
		}
	}
}

func TestBatchAccessTime(t *testing.T) {
	tm := DWave2000QTiming()
	if got, want := tm.BatchAccessTime([]int{1, 8, 3}), tm.AccessTime(8); got != want {
		t.Fatalf("BatchAccessTime([1 8 3]) = %v, want AccessTime(8) = %v", got, want)
	}
	if got, want := tm.BatchAccessTime([]int{0, -2}), tm.AccessTime(1); got != want {
		t.Fatalf("BatchAccessTime clamps non-positive reads: got %v, want %v", got, want)
	}
	if got := tm.BatchAccessTime(nil); got != 0 {
		t.Fatalf("BatchAccessTime(nil) = %v, want 0", got)
	}
}

// TestSplitAccessTimeSumsExactly pins the pro-rata accounting invariant:
// the per-member shares of one batched program always sum to exactly the
// single program's access time — including awkward remainder cases — so
// tenants collectively pay for one program, never more or less.
func TestSplitAccessTimeSumsExactly(t *testing.T) {
	tm := DWave2000QTiming()
	cases := [][]int{
		{1},
		{1, 1},
		{1, 1, 1}, // 131µs does not divide by 3 — remainder path
		{1, 2, 3, 4, 5},
		{7, 7, 7, 7, 7, 7, 7},
		{0, -1, 3}, // clamps
		{1, 1024},
	}
	for _, reads := range cases {
		shares := tm.SplitAccessTime(reads)
		if len(shares) != len(reads) {
			t.Fatalf("reads=%v: %d shares", reads, len(shares))
		}
		var sum time.Duration
		for _, s := range shares {
			if s <= 0 {
				t.Fatalf("reads=%v: non-positive share %v in %v", reads, s, shares)
			}
			sum += s
		}
		if want := tm.BatchAccessTime(reads); sum != want {
			t.Fatalf("reads=%v: shares %v sum to %v, want %v", reads, shares, sum, want)
		}
	}
	if tm.SplitAccessTime(nil) != nil {
		t.Fatal("SplitAccessTime(nil) should be nil")
	}
	// More reads → strictly larger share (pro-rata, not equal split).
	shares := tm.SplitAccessTime([]int{1, 10})
	if shares[1] <= shares[0] {
		t.Fatalf("pro-rata split inverted: %v", shares)
	}
}

// TestSampleBatchTraceSplitsDeviceTime is the satellite regression test: the
// per-member QACallEvents of one batched access carry pro-rata DeviceNs
// shares that sum to exactly the single program's AccessTime(max reads), so
// tracereport and the quality tracker never double-count batched device
// time. Each event also carries its own call index and the batch size.
func TestSampleBatchTraceSplitsDeviceTime(t *testing.T) {
	eps := []*EmbeddedProblem{
		testEmbeddedProblem(t, 26, 4),
		testEmbeddedProblem(t, 27, 8),
		testEmbeddedProblem(t, 28, 5),
	}
	reads := []int{3, 5, 2}

	var sink captureTracer
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 5)
	s.Trace = &sink
	s.Timing = DWave2000QTiming()
	s.Sample(eps[0], 1) // advance the call counter past zero
	sink.events = nil
	sets := s.SampleBatch(eps, reads)

	if len(sink.events) != len(eps) {
		t.Fatalf("got %d qa_call events, want %d", len(sink.events), len(eps))
	}
	var sum int64
	for i, ev := range sink.events {
		qc, ok := ev.(obs.QACallEvent)
		if !ok {
			t.Fatalf("event %d is %T, want QACallEvent", i, ev)
		}
		if qc.Call != int64(1+i) {
			t.Fatalf("member %d has call index %d, want %d", i, qc.Call, 1+i)
		}
		if qc.Reads != reads[i] || len(qc.Energies) != reads[i] {
			t.Fatalf("member %d: reads=%d energies=%d, want %d", i, qc.Reads, len(qc.Energies), reads[i])
		}
		if qc.BatchSize != len(eps) {
			t.Fatalf("member %d: batch size %d, want %d", i, qc.BatchSize, len(eps))
		}
		if qc.Best != sets[i].Best {
			t.Fatalf("member %d: traced best %d, returned best %d", i, qc.Best, sets[i].Best)
		}
		if qc.DeviceNs <= 0 {
			t.Fatalf("member %d: non-positive device share %d", i, qc.DeviceNs)
		}
		sum += qc.DeviceNs
	}
	want := s.Timing.AccessTime(5).Nanoseconds() // max(reads) = 5
	if sum != want {
		t.Fatalf("batched DeviceNs sum to %d, want single-program AccessTime %d", sum, want)
	}
}

// captureTracer records emitted events in order.
type captureTracer struct {
	events []obs.Event
}

func (c *captureTracer) Enabled() bool    { return true }
func (c *captureTracer) Emit(e obs.Event) { c.events = append(c.events, e) }
