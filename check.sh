#!/bin/sh
# Full verification gate: build, vet, race-enabled tests, a short fuzzing
# pass over the three fuzz targets, and a sampler benchmark smoke run that
# refreshes the machine-readable perf baseline. Run from the repo root.
#
# Set HYQSAT_BENCH_FULL=1 to also re-check full-report identity across
# bench worker counts (slow; skipped by default).
set -eux

go build ./...
go vet ./...
go test -race ./...
# Targeted race runs on the concurrency-bearing packages: parallel Sample,
# the embedding cache under the hybrid loop, the bench worker pool, the
# telemetry sinks (emitted into from sampler workers and race entrants), and
# the portfolio race itself.
go test -race -count=1 ./internal/anneal ./internal/hyqsat ./internal/bench ./internal/obs ./internal/portfolio
go test -run='^$' -fuzz=FuzzParseDIMACS -fuzztime=10s ./internal/cnf
go test -run='^$' -fuzz=FuzzEncodeClause -fuzztime=10s ./internal/qubo
go test -run='^$' -fuzz=FuzzProofCheck -fuzztime=10s ./internal/verify
go test -run='^$' -fuzz=FuzzUnembedCorrupt -fuzztime=10s ./internal/hyqsat
go test -run='^$' -fuzz=FuzzTemplateInstantiate -fuzztime=10s ./internal/anneal
# Template embedding gates: instantiating a clause queue onto the precomputed
# tile skeleton must stay allocation-free (the production fast path for every
# cache miss), and every template embedding must pass embed.Verify on both
# topologies, broken qubits included.
go test -run='TestTemplateInstantiateZeroAllocs|TestTemplateEmbeddingsVerify' -count=1 ./internal/anneal
# Cold frontend gates: encode, Fast and EmbedIsing must reproduce the pinned
# golden digests (and the pinned hardware-mode solve counters) bit for bit,
# and one cold Fast + EmbedIsing on a 300-clause activity queue must stay at
# or below half the allocations of the map-based implementation.
go test -run='TestFrontendGolden|TestColdFastEmbedIsingAllocs' -count=1 ./internal/hyqsat
# Chaos gate: the fault-tolerance layer (fault injection, retry/backoff,
# circuit breaker, degradation to pure CDCL) under the race detector, and
# the Resilient wrapper's happy-path overhead contract: 0 extra allocs/op
# always, ≤1% ns/op via the opt-in perf gate.
go test -race -count=1 ./internal/qpu ./internal/hyqsat
go test -run=TestResilientHappyPathAllocs -count=1 ./internal/qpu
HYQSAT_PERF_GATE=1 go test -run=TestResilientOverhead -count=1 -v ./internal/qpu
# Cross-solve batching gates: the tiling packer and batch scheduler under the
# race detector (including the determinism contract: demuxed read-sets are
# bit-identical to sequential solo sampling at the same seeds), pro-rata
# device-time shares summing exactly to the batched program's access time,
# and the steady-state pack/demux cycle staying allocation-free.
go test -race -count=1 ./internal/qbatch
go test -run='TestSampleBatchBitIdenticalToSequentialSample|TestSplitAccessTimeSumsExactly' -count=1 ./internal/anneal
go test -run='TestPackSteadyStateAllocs' -count=1 ./internal/qbatch
# Wire-chaos gate: the networked path end to end under the race detector —
# the hyqsatd service layer (admission control, per-tenant quotas,
# idempotency, SIGTERM drain), full hybrid solves through qpu.Remote behind
# a fault-injecting proxy at >=30% fault rates with certified verdicts and
# goroutine accounting, and dead-server degradation to the Local standby.
# The decode fuzz targets pin that no wire payload can panic either side.
go test -race -count=1 ./internal/serve ./cmd/hyqsatd
go test -run='^$' -fuzz=FuzzRemoteDecode -fuzztime=10s ./internal/qpu
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
# (in-process interleaved benchmark; opt-in via the env var).
go test -run='TestSampleIntoZeroAllocsWithNopTracer|TestSampleOnceSteadyStateAllocs' -count=1 ./internal/anneal .
HYQSAT_PERF_GATE=1 go test -run=TestNopTracerKernelOverhead -count=1 -v ./internal/anneal
# Trace round-trip smoke: record a real solve with -trace, then replay the
# JSONL through the obs reader (exercised end-to-end by the CLI test).
go test -run='TestCLITraceStreamReconstructsFigures|TestCLIFlightRecorder' -count=1 ./cmd/hyqsat
# Tracereport round-trip gate: a CLI solve recorded with -trace must feed
# tracereport a trace it can turn into a non-empty phase breakdown and a
# QA-quality report. Binaries are built (not `go run`) so the solver's
# SAT=10/UNSAT=20 exit convention survives; the portfolio -share acceptance
# path (per-entrant attribution) is pinned by the cmd/tracereport tests.
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
# allocation-free, reduceDB must leave no dead cref behind, and the randomized
# certification corpus (model-checked SAT, DRAT-checked UNSAT, config
# agreement) must hold under the race detector.
go test -run='TestPropagateSteadyStateAllocs|TestAnalyzeSteadyStateAllocs|TestNoDeletedWatchersAfterReduce|TestSolveDeterministicAcrossGC' -count=1 ./internal/sat
go test -race -count=1 -run='TestCDCLCorpusCertified|TestCDCLCorpusDifferential' ./internal/verify
# Sharing-soundness gate: the randomized clause-sharing corpus (model-checked
# SAT, shared-proof-checked UNSAT), adversarial bus injection, the QA chaos
# matrix and the stitched cube proofs, all under the race detector — the bus
# and the cube scheduler are the most concurrent code in the repo.
go test -race -count=1 -run='TestSharingSoundnessCorpus|TestSharingAdversarialInjection|TestSharingChaosMatrix|TestCubesPartitionSearchSpace|TestCubeStitchedProofRoundTrip|TestCubeDeterminismSingleWorker' ./internal/portfolio
# Sharing hot-path alloc gates (run without -race: the detector's own
# bookkeeping allocates): clause import into the arena and bus export
# filtering must stay allocation-free in steady state.
go test -run='TestImportHotPathAllocs|TestImportSteadyStateAllocs|TestInterruptStopsSearchAndRearms' -count=1 ./internal/sat
go test -run='TestBusExportHotPathAllocs' -count=1 ./internal/portfolio
# Sampler perf smoke: the kernel must stay 0 allocs/op, and the baseline
# file tracks the numbers this host produced.
go test -run='^$' -bench=BenchmarkSampleOnce -benchmem -benchtime=10x .
go run ./cmd/benchreport
# CDCL perf regression gate (opt-in): rerun the cdcl suite and fail on any
# ns/op regression beyond 25% against the committed snapshot. The wide
# threshold absorbs scheduler noise on small hosts; tighten it on quiet
# dedicated hardware. Regenerate the snapshot with
# `go run ./cmd/benchreport -suite cdcl` after intentional perf changes
# (the pre_refactor section is preserved automatically).
if [ "${HYQSAT_PERF_GATE:-0}" = "1" ]; then
	go run ./cmd/benchreport -compare BENCH_cdcl.json -threshold 25
	# Cube-and-conquer scaling gate: rerun the portfolio suite against the
	# CubeConquer rows of the same snapshot. Parallel wall-clock numbers on
	# a small shared host swing much more than single-threaded ones, so the
	# threshold is wider.
	go run ./cmd/benchreport -suite portfolio -compare BENCH_cdcl.json -threshold 60
	# Embedding-path gates: template instantiation must beat the cold Fast
	# pipeline by >= 5x on the same queue (the BENCH_embed acceptance bar),
	# and no embed-suite row may regress beyond the noise threshold of a
	# small shared host. Regenerate the snapshot with
	# `go run ./cmd/benchreport -suite embed` after intentional perf changes.
	HYQSAT_PERF_GATE=1 go test -run=TestEmbedTemplateSpeedup -count=1 -v ./internal/hyqsat
	go run ./cmd/benchreport -suite embed -compare BENCH_embed.json -threshold 75
	# Serve throughput gate: rerun the daemon throughput suite (paced virtual
	# QPU, 1/8/64 clients, batching on/off) against the committed snapshot.
	# Wall-clock jobs/sec on a small shared host is the noisiest number in the
	# repo, hence the widest threshold. Regenerate the snapshot with
	# `go run ./cmd/benchreport -suite serve` after intentional perf changes.
	go run ./cmd/benchreport -suite serve -compare BENCH_serve.json -threshold 100
fi
