// Command benchreport runs the repository's micro-benchmarks programmatically
// and writes machine-readable baselines, so future changes have a perf
// trajectory to compare against. Five suites exist:
//
//   - sampler (default): the QA sweep-kernel workloads of the root
//     BenchmarkSampleOnce / BenchmarkSampleOnceLong / BenchmarkSamplerParallel
//     → BENCH_baseline.json
//   - cdcl: the CDCL solver workloads of internal/sat's BenchmarkPropagate /
//     BenchmarkSolveUF and the proof check of internal/verify's
//     BenchmarkCheckUnsatProof, hinted and with the hints stripped (the
//     /rup row) → BENCH_cdcl.json (merged by benchmark name, so the
//     portfolio rows stay)
//   - portfolio: cube-and-conquer wall-clock scaling on the uf100/uuf100
//     family at 1/2/4 workers, merged by benchmark name into BENCH_cdcl.json
//     (the CDCL snapshot keeps its suite tag and existing entries)
//   - embed: one frontend pass of a hybrid warm-up iteration on a uf150
//     activity queue (hyqsat.EmbedBench), per topology → BENCH_embed.json
//   - serve: end-to-end daemon throughput under a paced virtual QPU at
//     1/8/64 concurrent clients with batching on and off → BENCH_serve.json
//     (serve_batch_speedup_8c records jobs/sec on over off at 8 clients; the
//     acceptance bar is > 1)
//
// Usage:
//
//	benchreport                          # sampler suite → BENCH_baseline.json
//	benchreport -suite cdcl              # cdcl suite → BENCH_cdcl.json
//	benchreport -suite portfolio         # scaling suite merged into BENCH_cdcl.json
//	benchreport -suite embed             # embedding suite → BENCH_embed.json
//	benchreport -suite cdcl -o out.json  # write elsewhere
//	benchreport -stdout                  # print instead of writing
//	benchreport -compare BENCH_cdcl.json # regression gate: rerun the snapshot's
//	                                     # suite, print a delta table, exit 1 if
//	                                     # any ns/op regressed > -threshold %
//	benchreport -compare BENCH_cdcl.json -threshold 25
//	benchreport -suite portfolio -compare BENCH_cdcl.json
//	                                     # an explicit -suite overrides the
//	                                     # snapshot's suite tag in -compare
//
// The cdcl snapshot additionally carries a pre_refactor section — the same
// workloads measured against the pre-arena clause representation — and the
// embed snapshot one measured on the frontend before its bit-identical
// speed-up; both are preserved verbatim across rewrites so the win stays on
// record.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"hyqsat/internal/anneal"
	"hyqsat/internal/bench"
	"hyqsat/internal/cnf"
	"hyqsat/internal/gen"
	"hyqsat/internal/hyqsat"
	"hyqsat/internal/portfolio"
	"hyqsat/internal/sat"
	"hyqsat/internal/serve"
	"hyqsat/internal/verify"
)

// readsPerCall mirrors the root BenchmarkSamplerParallel workload.
const readsPerCall = 32

type benchResult struct {
	Name          string  `json:"name"`
	Iterations    int     `json:"iterations"`
	NsPerOp       float64 `json:"ns_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	SamplesPerSec float64 `json:"samples_per_sec,omitempty"`
	// Serve-suite latency/device columns: client-observed p50/p99 job
	// latency and modelled QPU device time per verdict.
	P50NsPerOp    float64 `json:"p50_ns_per_op,omitempty"`
	P99NsPerOp    float64 `json:"p99_ns_per_op,omitempty"`
	DeviceNsPerOp float64 `json:"device_ns_per_op,omitempty"`
}

type report struct {
	Suite      string `json:"suite,omitempty"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// ParallelSpeedup4W is samples/sec at 4 workers over serial. ≥2× is the
	// expectation on a ≥4-core machine; on fewer cores the pool can only
	// reach ≈NumCPU×, which NumCPU above documents.
	ParallelSpeedup4W float64 `json:"parallel_speedup_4w,omitempty"`
	// PortfolioSpeedup4W is cube-and-conquer wall-clock speedup at 4 workers
	// over 1 on the uf100 family (portfolio suite). On a 2-CPU host the
	// work-sharing ceiling is ≈2×; SAT instances can exceed it because extra
	// cubes diversify the search (the first model found wins, so parallel
	// workers can skip work the serial run must do).
	PortfolioSpeedup4W float64 `json:"portfolio_speedup_4w,omitempty"`
	// ServeBatchSpeedup8C is jobs/sec with QPU batching on over off at 8
	// concurrent clients (serve suite). The acceptance bar is > 1: batching
	// must raise throughput once the paced device is contended.
	ServeBatchSpeedup8C float64       `json:"serve_batch_speedup_8c,omitempty"`
	Benchmarks          []benchResult `json:"benchmarks"`
	// PreRefactor holds reference numbers recorded before a landmark change
	// (for the cdcl suite: the pre-arena clause representation; for the embed
	// suite: the frontend before its bit-identical speed-up). It is carried
	// through rewrites and never regenerated.
	PreRefactor []benchResult `json:"pre_refactor,omitempty"`
}

func run(name string, samplesPerOp int, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	res := benchResult{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     nsPerOp,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
	if samplesPerOp > 0 {
		res.SamplesPerSec = float64(samplesPerOp) * 1e9 / nsPerOp
	}
	return res
}

func hostReport(suite string) report {
	return report{
		Suite:      suite,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

func samplerSuite() (report, error) {
	ep, err := bench.BuildSampleFixture(1, 30, 110)
	if err != nil {
		return report{}, err
	}
	rep := hostReport("sampler")
	// SampleOnce is the hardware-mode read (fast schedule, device noise);
	// SampleOnce/long is the simulator-mode read the daemon serves (long
	// schedule, no noise), where the chain phase dominates.
	sampleOnce := func(name string, sched anneal.Schedule, noise anneal.Noise) benchResult {
		return run(name, 1, func(b *testing.B) {
			s := anneal.NewSampler(sched, noise, 7)
			var out anneal.Sample
			s.SampleInto(ep, &out) // warm up scratch buffers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.SampleInto(ep, &out)
			}
		})
	}
	rep.Benchmarks = append(rep.Benchmarks,
		sampleOnce("SampleOnce", anneal.DefaultSchedule(), anneal.DWave2000QNoise),
		sampleOnce("SampleOnce/long", anneal.LongSchedule(), anneal.NoNoise))

	var serial, four float64
	for _, workers := range []int{1, 2, 4} {
		w := workers
		res := run(fmt.Sprintf("SamplerParallel/workers=%d", w), readsPerCall, func(b *testing.B) {
			s := anneal.NewSampler(anneal.DefaultSchedule(), anneal.DWave2000QNoise, 7)
			s.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Sample(ep, readsPerCall)
			}
		})
		rep.Benchmarks = append(rep.Benchmarks, res)
		switch w {
		case 1:
			serial = res.SamplesPerSec
		case 4:
			four = res.SamplesPerSec
		}
	}
	if serial > 0 {
		rep.ParallelSpeedup4W = four / serial
	}
	return rep, nil
}

// cdclSuite runs the CDCL solver workloads and the proof check of an UNSAT
// verdict — identical to internal/sat's BenchmarkPropagate and
// BenchmarkSolveUF and internal/verify's BenchmarkCheckUnsatProof, so
// `go test -bench` numbers and snapshot numbers are directly comparable.
func cdclSuite() (report, error) {
	f := bench.BuildCDCLFixture()
	pb, err := sat.NewPropagateBench(f, sat.MiniSATOptions(), 2000)
	if err != nil {
		return report{}, err
	}
	rep := hostReport("cdcl")
	rep.Benchmarks = append(rep.Benchmarks, run("Propagate/uf100", 0, func(b *testing.B) {
		pb.Run() // warm scratch buffers
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			pb.Run()
		}
	}))
	rep.Benchmarks = append(rep.Benchmarks, run("SolveUF/uf100", 0, func(b *testing.B) {
		opts := sat.MiniSATOptions()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if r := sat.New(f, opts).Solve(); r.Status != sat.Sat {
				panic("benchreport: cdcl fixture must be satisfiable")
			}
		}
	}))
	// The fixture proof carries the solver's hints; the rup row checks it
	// with them stripped, as a DRAT text proof is checked.
	pf, proof := bench.BuildProofFixture()
	steps := proof.Steps()
	for i := range steps {
		steps[i].Hints = nil
	}
	for _, c := range []struct {
		name  string
		proof verify.Proof
	}{{"CheckProof/uuf150", proof}, {"CheckProof/uuf150/rup", verify.NewProof(steps...)}} {
		rep.Benchmarks = append(rep.Benchmarks, run(c.name, 0, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := verify.CheckUnsatProof(pf, c.proof); err != nil {
					panic("benchreport: proof fixture rejected: " + err.Error())
				}
			}
		}))
	}
	return rep, nil
}

// portfolioSuite measures cube-and-conquer wall-clock scaling at 1, 2 and 4
// workers. Three workloads: a uf100 SAT instance whose satisfying cube sits
// late in the serial cube order (parallel workers reach it early —
// diversification speedup), a uuf100 UNSAT instance (pure work-sharing),
// and a uuf150 UNSAT instance whose larger per-cube refutations amortise the
// scheduler overhead, showing the efficiency ceiling of the host's physical
// cores. The probe budget is 1 conflict so the split always
// happens and the conquer phase dominates.
func portfolioSuite() (report, error) {
	workloads := []struct {
		name   string
		f      *cnf.Formula
		expect sat.Status
		depth  int
	}{
		{"uf100", gen.SatisfiableRandom3SAT(100, 426, 21).Formula, sat.Sat, 5},
		{"uuf100", gen.UnsatisfiableRandom3SAT(100, 430, 1).Formula, sat.Unsat, 4},
		{"uuf150", gen.UnsatisfiableRandom3SAT(150, 645, 3).Formula, sat.Unsat, 4},
	}
	rep := hostReport("portfolio")
	cube := func(name string, f *cnf.Formula, expect sat.Status, depth, workers int) benchResult {
		return run(fmt.Sprintf("CubeConquer/%s/workers=%d", name, workers), 0, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out, err := portfolio.SolveCubes(context.Background(), f.Copy(),
					portfolio.CubeOptions{Depth: depth, Workers: workers, ProbeConflicts: 1, Seed: 1})
				if err != nil {
					panic("benchreport: cube solve failed: " + err.Error())
				}
				if out.Result.Status != expect {
					panic("benchreport: unexpected cube verdict")
				}
			}
		})
	}
	nsPerOp := map[int]float64{}
	for _, wl := range workloads {
		for _, w := range []int{1, 2, 4} {
			res := cube(wl.name, wl.f, wl.expect, wl.depth, w)
			rep.Benchmarks = append(rep.Benchmarks, res)
			if wl.name == "uf100" {
				nsPerOp[w] = res.NsPerOp
			}
		}
	}
	if one, four := nsPerOp[1], nsPerOp[4]; one > 0 && four > 0 {
		rep.PortfolioSpeedup4W = one / four
	}
	return rep, nil
}

// embedSuite measures one frontend pass per topology: the queue stage and
// the cold Fast pipeline (on Pegasus, onto its Chimera fabric) on a uf150
// activity queue.
func embedSuite() (report, error) {
	rep := hostReport("embed")
	for _, topology := range []string{"chimera", "pegasus"} {
		eb, err := hyqsat.NewEmbedBench(topology)
		if err != nil {
			return report{}, err
		}
		rep.Benchmarks = append(rep.Benchmarks, run("EmbedColdFast/"+topology, 0, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				eb.Pass()
			}
		}))
	}
	return rep, nil
}

// serveSuite measures end-to-end daemon throughput under a paced virtual QPU
// at 1, 8 and 64 concurrent clients, with batching on and off. NumReads=16
// per QA access makes the modelled device time large enough that the serial
// device is genuinely contended — the regime cross-solve batching exists
// for. Each row reports wall-clock per job (ns/op), jobs/sec
// (samples_per_sec), client p50/p99 latency, and device time per verdict.
func serveSuite() (report, error) {
	rep := hostReport("serve")
	jobsPerSec := map[bool]map[int]float64{true: {}, false: {}}
	for _, clients := range []int{1, 8, 64} {
		jobs := 4 * clients
		if jobs > 128 {
			jobs = 128
		}
		for _, batching := range []bool{false, true} {
			res, err := serve.RunThroughputBench(serve.ThroughputConfig{
				Clients:  clients,
				Jobs:     jobs,
				Batching: batching,
				Reads:    16,
				Seed:     7,
			})
			if err != nil {
				return report{}, err
			}
			mode := "off"
			if batching {
				mode = "on"
			}
			row := benchResult{
				Name:          fmt.Sprintf("ServeJobs/clients=%d/batch=%s", clients, mode),
				Iterations:    res.Jobs,
				NsPerOp:       float64(res.Elapsed.Nanoseconds()) / float64(res.Jobs),
				SamplesPerSec: res.JobsPerSec,
				P50NsPerOp:    float64(res.P50.Nanoseconds()),
				P99NsPerOp:    float64(res.P99.Nanoseconds()),
				DeviceNsPerOp: float64(res.DevicePerVerdict.Nanoseconds()),
			}
			rep.Benchmarks = append(rep.Benchmarks, row)
			jobsPerSec[batching][clients] = res.JobsPerSec
		}
	}
	if off := jobsPerSec[false][8]; off > 0 {
		rep.ServeBatchSpeedup8C = jobsPerSec[true][8] / off
	}
	return rep, nil
}

func runSuite(suite string) (report, error) {
	switch suite {
	case "sampler":
		return samplerSuite()
	case "cdcl":
		return cdclSuite()
	case "portfolio":
		return portfolioSuite()
	case "embed":
		return embedSuite()
	case "serve":
		return serveSuite()
	default:
		return report{}, fmt.Errorf("unknown suite %q (want sampler, cdcl, portfolio, embed, or serve)", suite)
	}
}

func defaultOut(suite string) string {
	// The portfolio scaling numbers live alongside the CDCL snapshot: both
	// describe the same solver core, and the merge below keeps them in one
	// trajectory file.
	if suite == "cdcl" || suite == "portfolio" {
		return "BENCH_cdcl.json"
	}
	if suite == "embed" {
		return "BENCH_embed.json"
	}
	if suite == "serve" {
		return "BENCH_serve.json"
	}
	return "BENCH_baseline.json"
}

// mergeReports folds the fresh run into a previous snapshot by benchmark
// name: same-name entries are replaced, new ones appended, everything else —
// including the previous suite tag and speedup fields — is preserved. Host
// metadata is refreshed from the current run.
func mergeReports(prev, cur report) report {
	merged := cur
	if prev.Suite != "" {
		merged.Suite = prev.Suite
	}
	if merged.ParallelSpeedup4W == 0 {
		merged.ParallelSpeedup4W = prev.ParallelSpeedup4W
	}
	if merged.PortfolioSpeedup4W == 0 {
		merged.PortfolioSpeedup4W = prev.PortfolioSpeedup4W
	}
	if merged.ServeBatchSpeedup8C == 0 {
		merged.ServeBatchSpeedup8C = prev.ServeBatchSpeedup8C
	}
	curByName := map[string]benchResult{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var out []benchResult
	for _, b := range prev.Benchmarks {
		if nb, ok := curByName[b.Name]; ok {
			out = append(out, nb)
			delete(curByName, b.Name)
		} else {
			out = append(out, b)
		}
	}
	for _, b := range cur.Benchmarks {
		if _, ok := curByName[b.Name]; ok {
			out = append(out, b)
		}
	}
	merged.Benchmarks = out
	return merged
}

func loadReport(path string) (report, error) {
	var r report
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("parse %s: %w", path, err)
	}
	return r, nil
}

// compareReports renders a per-benchmark delta table between a prior snapshot
// and a fresh run, and reports whether any benchmark regressed beyond
// thresholdPct percent in ns/op. Benchmarks present on only one side are
// listed but never count as regressions.
func compareReports(old, cur report, thresholdPct float64) (string, bool) {
	out := fmt.Sprintf("%-28s %14s %14s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	oldByName := map[string]benchResult{}
	for _, b := range old.Benchmarks {
		oldByName[b.Name] = b
	}
	regressed := false
	for _, nb := range cur.Benchmarks {
		ob, ok := oldByName[nb.Name]
		if !ok {
			out += fmt.Sprintf("%-28s %14s %14.0f %9s\n", nb.Name, "-", nb.NsPerOp, "new")
			continue
		}
		delete(oldByName, nb.Name)
		deltaPct := 100 * (nb.NsPerOp - ob.NsPerOp) / ob.NsPerOp
		mark := ""
		if deltaPct > thresholdPct {
			mark = "  REGRESSION"
			regressed = true
		}
		out += fmt.Sprintf("%-28s %14.0f %14.0f %+8.1f%%%s\n",
			nb.Name, ob.NsPerOp, nb.NsPerOp, deltaPct, mark)
	}
	for name, ob := range oldByName {
		out += fmt.Sprintf("%-28s %14.0f %14s %9s\n", name, ob.NsPerOp, "-", "gone")
	}
	return out, regressed
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}

func main() {
	suite := flag.String("suite", "sampler", "benchmark suite: sampler, cdcl, portfolio, embed, or serve")
	out := flag.String("o", "", "output path (default depends on suite)")
	stdout := flag.Bool("stdout", false, "print the report instead of writing it")
	compare := flag.String("compare", "", "prior snapshot to compare against (regression gate; no file is written)")
	threshold := flag.Float64("threshold", 10, "ns/op regression threshold for -compare, in percent")
	flag.Parse()

	// An explicitly passed -suite must win over the snapshot's suite tag in
	// -compare mode (a merged snapshot like BENCH_cdcl.json holds several
	// suites' benchmarks under one tag; the flag selects which one to rerun).
	explicitSuite := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "suite" {
			explicitSuite = true
		}
	})

	if *compare != "" {
		old, err := loadReport(*compare)
		if err != nil {
			fatal(err)
		}
		s := *suite
		if !explicitSuite && old.Suite != "" {
			s = old.Suite // the snapshot knows which suite produced it
		}
		cur, err := runSuite(s)
		if err != nil {
			fatal(err)
		}
		table, regressed := compareReports(old, cur, *threshold)
		fmt.Printf("benchreport: %s suite vs %s (threshold %.0f%%)\n%s", s, *compare, *threshold, table)
		if regressed {
			fmt.Println("benchreport: FAIL — ns/op regression beyond threshold")
			os.Exit(1)
		}
		fmt.Println("benchreport: ok — no regression beyond threshold")
		return
	}

	rep, err := runSuite(*suite)
	if err != nil {
		fatal(err)
	}
	path := *out
	if path == "" {
		path = defaultOut(*suite)
	}
	// Preserve a previously recorded pre-refactor section verbatim, and fold
	// the cdcl and portfolio suites into an existing snapshot instead of
	// clobbering it (BENCH_cdcl.json carries both families).
	if prev, err := loadReport(path); err == nil {
		if len(prev.PreRefactor) > 0 {
			rep.PreRefactor = prev.PreRefactor
		}
		if (*suite == "cdcl" || *suite == "portfolio") && len(prev.Benchmarks) > 0 {
			rep = mergeReports(prev, rep)
		}
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *stdout {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	switch *suite {
	case "cdcl":
		fmt.Printf("benchreport: wrote %s (Propagate %.0f ns/op %d allocs/op, SolveUF %.2f ms/op)\n",
			path, rep.Benchmarks[0].NsPerOp, rep.Benchmarks[0].AllocsPerOp,
			rep.Benchmarks[1].NsPerOp/1e6)
	case "portfolio":
		fmt.Printf("benchreport: wrote %s (CubeConquer uf100 4-worker speedup %.2fx on %d CPUs)\n",
			path, rep.PortfolioSpeedup4W, rep.NumCPU)
	case "embed":
		fmt.Printf("benchreport: wrote %s (frontend pass on chimera %.0f ns/op %d allocs/op)\n",
			path, rep.Benchmarks[0].NsPerOp, rep.Benchmarks[0].AllocsPerOp)
	case "serve":
		fmt.Printf("benchreport: wrote %s (batching speedup at 8 clients %.2fx on %d CPUs)\n",
			path, rep.ServeBatchSpeedup8C, rep.NumCPU)
	default:
		fmt.Printf("benchreport: wrote %s (SampleOnce %.0f ns/op, %d allocs/op; 4-worker speedup %.2fx on %d CPUs)\n",
			path, rep.Benchmarks[0].NsPerOp, rep.Benchmarks[0].AllocsPerOp,
			rep.ParallelSpeedup4W, rep.NumCPU)
	}
}
