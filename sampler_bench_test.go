// Micro-benchmarks of the sampling kernel and the parallel multi-read layer.
// cmd/benchreport runs the same workloads programmatically and records the
// results in BENCH_baseline.json, so future changes have a perf trajectory.
package hyqsat_test

import (
	"fmt"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/bench"
)

func samplerFixture(b *testing.B) *anneal.EmbeddedProblem {
	b.Helper()
	ep, err := bench.BuildSampleFixture(1, 30, 110)
	if err != nil {
		b.Fatal(err)
	}
	return ep
}

// BenchmarkSampleOnce measures the steady-state sweep kernel (one anneal +
// readout on a programmed problem). Run with -benchmem: the contract is
// 0 allocs/op, enforced by TestSampleOnceSteadyStateAllocs below and the
// anneal package's own AllocsPerRun test.
func BenchmarkSampleOnce(b *testing.B) {
	ep := samplerFixture(b)
	s := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 7)
	var out anneal.Sample
	s.SampleInto(ep, &out) // warm up scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(ep, &out)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkSampleOnceLong is BenchmarkSampleOnce in simulator mode, the
// setting the daemon serves: the long schedule without noise, where the
// chain phase's 512 sweeps dominate the read.
func BenchmarkSampleOnceLong(b *testing.B) {
	ep := samplerFixture(b)
	s := anneal.NewSampler(anneal.LongSchedule(), anneal.NoNoise, 7)
	var out anneal.Sample
	s.SampleInto(ep, &out) // warm up scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SampleInto(ep, &out)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// TestSampleOnceSteadyStateAllocs asserts the kernel's zero-allocation
// contract from the root package too, so a plain `go test .` catches an
// allocation regression without running benchmarks.
func TestSampleOnceSteadyStateAllocs(t *testing.T) {
	ep, err := bench.BuildSampleFixture(1, 30, 110)
	if err != nil {
		t.Fatal(err)
	}
	s := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 7)
	var out anneal.Sample
	s.SampleInto(ep, &out)
	if allocs := testing.AllocsPerRun(20, func() { s.SampleInto(ep, &out) }); allocs != 0 {
		t.Fatalf("SampleInto allocates %.1f objects per run in steady state, want 0", allocs)
	}
}

// BenchmarkSamplerParallel measures multi-read throughput at several worker
// counts on the same embedded problem. Output is identical at every worker
// count; only wall-clock changes. On a multi-core machine 4 workers should
// deliver ≥2× the serial samples/sec (on a single-core machine the worker
// pool degrades to ≈1×; BENCH_baseline.json records which regime produced
// the recorded numbers).
func BenchmarkSamplerParallel(b *testing.B) {
	ep := samplerFixture(b)
	const readsPerCall = 32
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			s := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 7)
			s.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(ep, readsPerCall)
			}
			b.ReportMetric(float64(b.N*readsPerCall)/b.Elapsed().Seconds(), "samples/sec")
		})
	}
}
