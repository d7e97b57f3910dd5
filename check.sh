#!/bin/sh
# Full verification gate: build, vet, race-enabled tests, a short fuzzing
# pass over the fuzz targets, alloc gates, binary smokes, and a sampler
# benchmark smoke run. It leaves the working tree as it found it. Run from the
# repo root.
#
# Set HYQSAT_BENCH_FULL=1 to also re-check full-report identity across
# bench worker counts (slow; skipped by default).
set -eux

go build ./...
go vet ./...
# The nested perfbench module is outside `./...`; build, vet and test it so a
# change under internal/ that breaks the benchmark fails here.
(cd perfbench && go vet ./... && go test -count=1 ./...)
# Every Go file is gofmt-clean.
test -z "$(gofmt -l .)"
# One uncached race-detector run over every package covers all the
# concurrency-bearing code: parallel Sample under the hybrid loop, the
# bench worker pool, the telemetry sinks, cube-and-conquer (concurrent
# workers, QA warm-ups, stitched cube proofs), the fault-tolerance layer
# (fault injection, retry/backoff, circuit breaker, degradation to pure
# CDCL), the qbatch packer and scheduler with its bit-identical per-member
# sampling contract,
# the hyqsatd service layer (admission, quotas, idempotency, drain, sample
# requests cancelled mid-flight), and the randomized CDCL certification
# corpus. HYQSAT_PERF_GATE is unset for this
# pass: the 1% ns/op gates (TestResilientOverhead,
# TestNopTracerKernelOverhead) measure the detector's overhead rather than
# the code's, so they run only in their own un-instrumented steps below.
env -u HYQSAT_PERF_GATE go test -race -count=1 ./...
go test -run='^$' -fuzz=FuzzParseDIMACS -fuzztime=10s ./internal/cnf
go test -run='^$' -fuzz=FuzzEncodeClause -fuzztime=10s ./internal/qubo
go test -run='^$' -fuzz=FuzzProofCheck -fuzztime=10s ./internal/verify
go test -run='^$' -fuzz=FuzzUnembedCorrupt -fuzztime=10s ./internal/hyqsat
go test -run='^$' -fuzz=FuzzFastVerify -fuzztime=10s ./internal/embed
# Fast embedding gate: on the 2000Q and on Pegasus(16)'s Chimera fabric, with
# 0 to 300 broken qubits, every Fast embedding of a BFS clause queue must
# pass embed.Verify against the real graph.
go test -run='TestFastEmbeddingsVerify' -count=1 ./internal/embed
# Cold frontend gates: encode, Fast and EmbedIsing must reproduce the pinned
# golden digests (and the pinned hardware-mode solve counters) bit for bit;
# one cold Fast + EmbedIsing on a 300-clause activity queue must stay at or
# below half the allocations of the map-based implementation, and the whole
# embedding pass (encodeAndEmbed on warm solver scratch) at or below 48; the
# part of an iteration that builds no embedding (unsat scan, queue
# generation, unembedding, embedded-variable collection) must allocate
# nothing; and a collection mid-solve must free the embedded problems of
# past iterations.
go test -run='TestFrontendGolden|TestColdFastEmbedIsingAllocs|TestColdMissAllocs|TestIterationScratchAllocs|TestPastProblemsCollected' -count=1 ./internal/hyqsat
# Chaos gate: the Resilient wrapper's happy-path overhead contract, measured
# with the CLI's zero Config (every attempt on the caller's context): 0 extra
# allocs/op always, ≤1% ns/op via the opt-in perf gate (median of per-round
# paired ratios, run order alternating each round; internal/perfgate).
go test -run=TestResilientHappyPathAllocs -count=1 ./internal/qpu
HYQSAT_PERF_GATE=1 go test -run=TestResilientOverhead -count=1 -v ./internal/qpu
# Cross-solve batching gates: each member's read set from a batched program
# bit-identical to sequential solo sampling at the same seeds, pro-rata
# device-time shares summing exactly to the batched program's access time,
# and the steady-state pack cycle staying allocation-free.
go test -run='TestSampleBatchBitIdenticalToSequentialSample|TestSplitAccessTimeSumsExactly' -count=1 ./internal/anneal
go test -run='TestPackSteadyStateAllocs' -count=1 ./internal/qbatch
# Wire-decode gate: the decode fuzz targets pin that no /v1/qpu/sample
# payload can panic its decoders, the server's request decoder and the
# response decoder (qpu.SampleResponse.ReadSet).
go test -run='^$' -fuzz=FuzzSampleResponseDecode -fuzztime=10s ./internal/qpu
go test -run='^$' -fuzz=FuzzWireProblemDecode -fuzztime=10s ./internal/anneal
# Built-binary service smoke: a real hyqsatd process with QPU batching on
# serves a job round trip (submit DIMACS, poll to a certified verdict), its
# introspection listener reports the solve's QA accesses ran as batched
# device programs, and it drains cleanly on TERM.
wiredir=$(mktemp -d)
go build -o "$wiredir" ./cmd/hyqsatd ./cmd/satgen
"$wiredir/satgen" -random -vars 20 -clauses 84 -seed 7 > "$wiredir/inst.cnf"
"$wiredir/hyqsatd" -addr 127.0.0.1:0 -obs 127.0.0.1:0 -qpu-window 200us -qpu-batch-members 4 \
	-drain-grace 2s > "$wiredir/out.log" 2> "$wiredir/err.log" &
dpid=$!
base=""
for _ in $(seq 1 100); do
	base=$(sed -n 's#.*serving on \(http://[^ ]*\).*#\1#p' "$wiredir/err.log" | head -1)
	[ -n "$base" ] && break
	sleep 0.1
done
test -n "$base"
obsbase=""
for _ in $(seq 1 100); do
	obsbase=$(sed -n 's#.*introspection on \(http://[^ ]*\).*#\1#p' "$wiredir/err.log" | head -1)
	[ -n "$obsbase" ] && break
	sleep 0.1
done
test -n "$obsbase"
python3 -c 'import json,sys; print(json.dumps({"cnf": sys.stdin.read(), "seed": 3}))' \
	< "$wiredir/inst.cnf" > "$wiredir/req.json"
jobid=$(curl -sf -X POST --data-binary "@$wiredir/req.json" "$base/v1/jobs" \
	| sed -n 's/.*"id":"\([^"]*\)".*/\1/p')
test -n "$jobid"
verdict=""
for _ in $(seq 1 200); do
	verdict=$(curl -sf "$base/v1/jobs/$jobid" | sed -n 's/.*"verdict":"\([^"]*\)".*/\1/p')
	[ -n "$verdict" ] && break
	sleep 0.1
done
test "$verdict" = "sat" -o "$verdict" = "unsat"
# The solve's QA accesses went through the batch scheduler: at least one
# device program ran and modelled device time accrued.
curl -sf "$obsbase/metrics" > "$wiredir/metrics.txt"
grep -E '^batch_programs [1-9]' "$wiredir/metrics.txt"
grep -E '^batch_device_ns [1-9]' "$wiredir/metrics.txt"
kill -TERM "$dpid"
wait "$dpid"
grep -q 'drained cleanly' "$wiredir/out.log"
rm -rf "$wiredir"
# Telemetry gates: the sweep kernel keeps its 0 allocs/op contract with the
# no-op tracer installed, and stays within 1% ns/op of the untraced kernel
# (median of per-round paired ratios, as the chaos gate; opt-in via the env
# var).
go test -run='TestSampleIntoZeroAllocsWithNopTracer|TestSampleOnceSteadyStateAllocs' -count=1 ./internal/anneal .
HYQSAT_PERF_GATE=1 go test -run=TestNopTracerKernelOverhead -count=1 -v ./internal/anneal
# Trace round-trip smoke: record a real solve with -trace, then replay the
# JSONL through the obs reader (exercised end-to-end by the CLI test).
go test -run='TestCLITraceStreamReconstructsFigures|TestCLIFlightRecorder' -count=1 ./cmd/hyqsat
# Tracereport round-trip gate: a CLI solve recorded with -trace must feed
# tracereport a trace it can turn into a non-empty phase breakdown and a
# QA-quality report. Binaries are built (not `go run`) so the solver's
# SAT=10/UNSAT=20 exit convention survives; the cube-and-conquer acceptance
# path (per-worker attribution) is pinned by the cmd/tracereport tests.
tracedir=$(mktemp -d)
go build -o "$tracedir" ./cmd/hyqsat ./cmd/satgen ./cmd/tracereport
"$tracedir/satgen" -random -vars 40 -clauses 168 -seed 5 > "$tracedir/inst.cnf"
rc=0
"$tracedir/hyqsat" -solver hyqsat -mode sim -trace "$tracedir/solve.jsonl" "$tracedir/inst.cnf" || rc=$?
test "$rc" -eq 10 -o "$rc" -eq 20
"$tracedir/tracereport" "$tracedir/solve.jsonl" > "$tracedir/report.txt"
grep -q 'phases (total' "$tracedir/report.txt"
grep -q 'quality: qacalls=' "$tracedir/report.txt"
"$tracedir/tracereport" -json "$tracedir/solve.jsonl" > "$tracedir/report.json"
rm -rf "$tracedir"
go test -count=1 ./cmd/tracereport
# CDCL arena gates: steady-state propagation and conflict analysis must stay
# allocation-free, and reduceDB must leave no dead cref behind.
go test -run='TestPropagateSteadyStateAllocs|TestAnalyzeSteadyStateAllocs|TestNoDeletedWatchersAfterReduce|TestSolveDeterministicAcrossGC' -count=1 ./internal/sat
# Proof-checker alloc gate: a one-worker DRAT check of the shared uuf150
# proof fixture allocates at most one object per four proof steps.
go test -run='TestCheckUnsatProofAllocs' -count=1 ./internal/verify
# Interrupt gate (run without -race): a pre-set interrupt stops the next
# search call with Unknown, and clearing it re-arms the solver.
go test -run='TestInterruptStopsSearchAndRearms' -count=1 ./internal/sat
# Sampler perf smoke: the kernel must stay 0 allocs/op, and the sampler
# suite must run end to end. The report goes to stdout and is discarded so
# the tracked BENCH_baseline.json stays untouched; regenerate it with
# `go run ./cmd/benchreport` after intentional perf changes.
go test -run='^$' -bench=BenchmarkSampleOnce -benchmem -benchtime=10x .
go run ./cmd/benchreport -stdout >/dev/null
# CDCL perf regression gate (opt-in): rerun the cdcl suite and fail on any
# ns/op regression beyond 25% against the committed snapshot. The wide
# threshold absorbs scheduler noise on small hosts; tighten it on quiet
# dedicated hardware. Regenerate the snapshot with
# `go run ./cmd/benchreport -suite cdcl` after intentional perf changes
# (the pre_refactor section is preserved automatically).
if [ "${HYQSAT_PERF_GATE:-0}" = "1" ]; then
	# Sampler regression gate: rerun the sampler suite against
	# BENCH_baseline.json. The SamplerParallel rows swing widely on a 2-vCPU
	# host, hence the threshold.
	go run ./cmd/benchreport -compare BENCH_baseline.json -threshold 40
	go run ./cmd/benchreport -compare BENCH_cdcl.json -threshold 25
	# Cube-and-conquer scaling gate: rerun the portfolio suite against the
	# CubeConquer rows of the same snapshot. Parallel wall-clock numbers on
	# a small shared host swing much more than single-threaded ones, so the
	# threshold is wider.
	go run ./cmd/benchreport -suite portfolio -compare BENCH_cdcl.json -threshold 60
	# Embedding-path gate: no embed-suite row (the cold Fast pipeline, per
	# topology) may regress beyond the noise threshold of a small shared
	# host. Regenerate the snapshot with
	# `go run ./cmd/benchreport -suite embed` after intentional perf changes.
	go run ./cmd/benchreport -suite embed -compare BENCH_embed.json -threshold 75
	# Serve throughput gate: rerun the daemon throughput suite (paced virtual
	# QPU, 1/8/64 clients, batching on/off) against the committed snapshot.
	# Wall-clock jobs/sec on a small shared host is the noisiest number in the
	# repo, hence the widest threshold. Regenerate the snapshot with
	# `go run ./cmd/benchreport -suite serve` after intentional perf changes.
	go run ./cmd/benchreport -suite serve -compare BENCH_serve.json -threshold 100
fi
