package anneal

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"hyqsat/internal/cnf"
	"hyqsat/internal/embed"
	"hyqsat/internal/qubo"
	"hyqsat/internal/topo"
)

// testEmbeddedProblem builds a representative embedded problem from a few
// random 3-SAT clauses.
func testEmbeddedProblem(t testing.TB, seed int64, numClauses int) *EmbeddedProblem {
	rng := rand.New(rand.NewSource(seed))
	g := topo.DWave2000Q()
	var clauses []cnf.Clause
	for i := 0; i < numClauses; i++ {
		perm := rng.Perm(10)[:3]
		c := make(cnf.Clause, 3)
		for j, v := range perm {
			c[j] = cnf.MkLit(cnf.Var(v), rng.Intn(2) == 0)
		}
		clauses = append(clauses, c)
	}
	enc, err := qubo.Encode(clauses)
	if err != nil {
		t.Fatal(err)
	}
	res := embed.Fast(enc, g)
	if res.EmbeddedClauses != numClauses {
		t.Fatalf("embedded %d/%d clauses", res.EmbeddedClauses, numClauses)
	}
	is := enc.Program(&qubo.Sums{}, false)
	return EmbedIsing(is, res.Embedding, g, ChainStrengthFor(is))
}

func sameSample(a, b Sample) bool {
	if a.BrokenChains != b.BrokenChains || a.HardwareEnergy != b.HardwareEnergy {
		return false
	}
	if len(a.NodeValues) != len(b.NodeValues) {
		return false
	}
	for k, v := range a.NodeValues {
		if w, ok := b.NodeValues[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestSampleDeterministicAcrossWorkerCounts is the reproducibility contract:
// for a fixed sampler seed, Sample(ep, n) returns bit-identical reads (and
// the same best index) at every worker count.
func TestSampleDeterministicAcrossWorkerCounts(t *testing.T) {
	ep := testEmbeddedProblem(t, 11, 12)
	const numReads = 16
	var ref ReadSet
	for _, workers := range []int{1, 2, 8} {
		s := NewSampler(DefaultSchedule(), DWave2000QNoise, 99)
		s.Workers = workers
		rs := s.Sample(ep, numReads)
		if len(rs.Samples) != numReads {
			t.Fatalf("workers=%d: got %d reads, want %d", workers, len(rs.Samples), numReads)
		}
		if workers == 1 {
			ref = rs
			continue
		}
		if rs.Best != ref.Best {
			t.Fatalf("workers=%d: best read %d, serial best %d", workers, rs.Best, ref.Best)
		}
		for i := range rs.Samples {
			if !sameSample(rs.Samples[i], ref.Samples[i]) {
				t.Fatalf("workers=%d: read %d differs from serial run", workers, i)
			}
		}
	}
}

// TestSampleSuccessiveCallsDrawFreshRandomness guards the call-counter
// mixing: two Sample calls on the same problem must not return identical
// read sets (else every hybrid iteration would see the same device output).
func TestSampleSuccessiveCallsDrawFreshRandomness(t *testing.T) {
	ep := testEmbeddedProblem(t, 12, 12)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 7)
	a := s.Sample(ep, 8)
	b := s.Sample(ep, 8)
	same := true
	for i := range a.Samples {
		if !sameSample(a.Samples[i], b.Samples[i]) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two successive Sample calls returned identical read sets")
	}
}

// TestSampleBestIsLowestEnergy checks the best-read selection and its
// earliest-index tie-break.
func TestSampleBestIsLowestEnergy(t *testing.T) {
	ep := testEmbeddedProblem(t, 13, 10)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 3)
	rs := s.Sample(ep, 12)
	for i, smp := range rs.Samples {
		if smp.HardwareEnergy < rs.Samples[rs.Best].HardwareEnergy {
			t.Fatalf("read %d has energy %v < best read %d energy %v",
				i, smp.HardwareEnergy, rs.Best, rs.Samples[rs.Best].HardwareEnergy)
		}
		if smp.HardwareEnergy == rs.Samples[rs.Best].HardwareEnergy && i < rs.Best {
			t.Fatalf("tie at energy %v not broken towards earliest read (%d vs %d)",
				smp.HardwareEnergy, i, rs.Best)
		}
	}
	if got := rs.BestSample(); !sameSample(got, rs.Samples[rs.Best]) {
		t.Fatal("BestSample does not return Samples[Best]")
	}
}

// TestSampleConcurrentCallers exercises concurrent Sample calls on one
// sampler and one shared EmbeddedProblem (meaningful under -race).
func TestSampleConcurrentCallers(t *testing.T) {
	ep := testEmbeddedProblem(t, 14, 10)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 21)
	s.Workers = 4
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 3; iter++ {
				rs := s.Sample(ep, 6)
				if len(rs.Samples) != 6 {
					t.Errorf("got %d reads, want 6", len(rs.Samples))
				}
			}
		}()
	}
	wg.Wait()
}

// TestSampleOnceMatchesSampleInto pins the wrapper to the zero-alloc path.
func TestSampleOnceMatchesSampleInto(t *testing.T) {
	ep := testEmbeddedProblem(t, 15, 10)
	a := NewSampler(DefaultSchedule(), DWave2000QNoise, 5)
	b := NewSampler(DefaultSchedule(), DWave2000QNoise, 5)
	var out Sample
	for i := 0; i < 4; i++ {
		got := a.SampleOnce(ep)
		b.SampleInto(ep, &out)
		if !sameSample(got, out) {
			t.Fatalf("iteration %d: SampleOnce and SampleInto diverge", i)
		}
	}
}

// TestSampleIntoZeroAllocs asserts the steady-state zero-allocation contract
// of the sweep kernel: after warm-up, repeated SampleInto on the same problem
// allocates nothing (noise path included).
func TestSampleIntoZeroAllocs(t *testing.T) {
	ep := testEmbeddedProblem(t, 16, 12)
	s := NewSampler(DefaultSchedule(), DWave2000QNoise, 9)
	var out Sample
	s.SampleInto(ep, &out) // warm up scratch and the NodeValues map
	allocs := testing.AllocsPerRun(20, func() {
		s.SampleInto(ep, &out)
	})
	if allocs != 0 {
		t.Fatalf("SampleInto allocates %.1f objects per run in steady state, want 0", allocs)
	}
}

// TestMaxAbsPrecomputed checks the finalize-time coefficient scale against a
// direct scan of the embedded problem.
func TestMaxAbsPrecomputed(t *testing.T) {
	ep := testEmbeddedProblem(t, 17, 12)
	want := 0.0
	for _, v := range ep.H {
		if a := math.Abs(v); a > want {
			want = a
		}
	}
	for _, j := range ep.adjJ {
		if a := math.Abs(j); a > want {
			want = a
		}
	}
	if ep.maxAbs != want {
		t.Fatalf("precomputed maxAbs %v, scan says %v", ep.maxAbs, want)
	}
	if want == 0 {
		t.Fatal("degenerate test problem: all coefficients zero")
	}
}

// TestPairIDsSymmetric checks that the CSR pair index maps both directions of
// every coupler to one id, and every id to exactly two entries.
func TestPairIDsSymmetric(t *testing.T) {
	ep := testEmbeddedProblem(t, 18, 12)
	count := make(map[int32]int, ep.numPairs)
	for i := 0; i < len(ep.Qubits); i++ {
		for k := ep.adjStart[i]; k < ep.adjStart[i+1]; k++ {
			count[ep.adjPair[k]]++
			// Find the reverse entry and require the same pair id and J.
			o := ep.adjOther[k]
			found := false
			for r := ep.adjStart[o]; r < ep.adjStart[o+1]; r++ {
				if int(ep.adjOther[r]) == i {
					found = true
					if ep.adjPair[r] != ep.adjPair[k] {
						t.Fatalf("pair id mismatch for coupler (%d,%d)", i, o)
					}
					if ep.adjJ[r] != ep.adjJ[k] {
						t.Fatalf("asymmetric J for coupler (%d,%d)", i, o)
					}
				}
			}
			if !found {
				t.Fatalf("coupler (%d,%d) has no reverse CSR entry", i, o)
			}
		}
	}
	if len(count) != ep.numPairs {
		t.Fatalf("%d distinct pair ids, numPairs says %d", len(count), ep.numPairs)
	}
	for id, c := range count {
		if c != 2 {
			t.Fatalf("pair id %d appears in %d entries, want 2", id, c)
		}
	}
}
