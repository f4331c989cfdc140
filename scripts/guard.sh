#!/usr/bin/env bash
# The repository's guard set, one command per tier, the same locally and in
# CI (.github/workflows/ci.yml calls nothing else for tests):
#
#   scripts/guard.sh tier1   build, vet, gofmt, the whole suite, then the
#                            guards that need flags of their own: counter and
#                            residency guards, repeated-run determinism,
#                            schedule exploration, smokes, 10 s per fuzz target
#   scripts/guard.sh race    the -race set: whole packages, then the stress
#                            tests at -count > 1
#   scripts/guard.sh long    -tags long: 10^5 explored schedules, 10^4 of
#                            agg.ECSum alone, the p = 16384 mid-run
#                            residency guard (minutes)
#   scripts/guard.sh bench   BENCHMARK.json's command at full size, all six
#                            workloads at -seconds 3: exit 0 and six correct
#                            result lines (about a minute)
#
# Every step that selects tests by name goes through must_run, so a name
# that matches no test fails the step instead of passing by running nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# must_run <pkg> <Test1|Test2|...> [go test flags]: runs exactly the named
# top-level tests of pkg and fails unless each of them reported PASS.
must_run() {
  local pkg=$1 names=$2 out n
  shift 2
  out=$(go test "$@" -v -run "^(${names})\$" "$pkg" 2>&1) || { tail -n 60 <<<"$out"; return 1; }
  for n in ${names//|/ }; do
    grep -q -- "--- PASS: $n " <<<"$out" || { echo "$pkg: no test named $n ran"; return 1; }
  done
  echo "$pkg ${names}: $(tail -n 1 <<<"$out")"
}

# fuzz <pkg> <FuzzTarget>: ten seconds of native fuzzing; fails if the
# target does not exist.
fuzz() {
  local out
  out=$(go test -run '^$' -fuzz "^$2\$" -fuzztime 10s -fuzzminimizetime 1s "$1" 2>&1) || { tail -n 60 <<<"$out"; return 1; }
  if grep -q 'no fuzz tests to fuzz' <<<"$out"; then
    echo "$1: no fuzz target named $2"
    return 1
  fi
  echo "$1 $2: $(tail -n 1 <<<"$out")"
}

tier1() {
  go build ./...
  go vet ./...
  test -z "$(gofmt -l .)"
  go test ./...
  # The selection kernels allocate nothing, and the branch-free band split
  # agrees with the swap-loop partition; the treap's arena path (below) is
  # guarded by a counter, not timing.
  must_run ./internal/qsel/ 'TestSelectZeroAlloc|TestSplitBandZeroAlloc|TestSplitBandAgainstPartitionRange'
  # The local kernels of the batch algorithms: the stable radix engine
  # against a stable sort, the aggregate's sorted runs against a hash-table
  # oracle to the bit and allocation-free on a warm pool, NewData's lists
  # and dense ranks against a stable sort under heavy score ties.
  must_run ./internal/qsel/ 'TestSortPairsStableAgainstSortOracle|TestSortPairsZeroAlloc'
  must_run ./internal/agg/ 'TestLocalAggregate|TestLocalAggregateMatchesSumTable|TestLocalAggregateZeroAlloc'
  # Counting is sorted runs: the run engine allocation-free on a warm
  # pool, every dht codec round-trips, and a blocking count and top-k
  # selection allocate no more than their pooled stepper forms did.
  must_run ./internal/dht/ 'TestRunEngineZeroAlloc|TestWireCodecsRoundTrip|TestCountKeysBothRoutes|TestSBFResolveSplitsCollisions|TestCountAndSelectAllocBound'
  must_run ./internal/treap/ 'TestArenaPathTaken|TestChurnZeroAlloc|TestPopSmallest|TestInsertBuildsTheMergeShape'
  # Goroutine residency: a resident p = 16384 machine, p = 16384 mid-run,
  # p = 65536 inside the memory budget.
  must_run ./internal/comm/ 'TestMailboxGoroutineCountResident|TestRunAsyncMidRunResidency'
  must_run ./internal/experiments/ 'TestScaling65536WithinBudgets'
  # Blocking bodies are coroutines on the scheduler: a panic, a Goexit or
  # an external abort while they are suspended is a clean error, the
  # machine is reusable, and no coroutine leaks — nested bodies
  # (comm.BodyStep inside a stepper) included, which also resume each on
  # its own yield.
  must_run ./internal/comm/ 'TestBlockingRunAbortWhileSuspended|TestBlockingBodyGoexitFailsRun|TestBodyStepNestedAlternates|TestBodyStepAbortStopsNestedBodies'
  # Schedule exploration on the simexec executor (>= 10^3 seeded schedules,
  # every family as blocking bodies and, where it has a stepper form, as
  # steppers, every serve kind,
  # results and meters bit-identical) and its self-test (a FIFO-violating
  # policy is caught; a seed is a trace, in both body forms).
  must_run ./internal/experiments/ 'TestScheduleExploration|TestExplorationIsSensitive|TestFuzzDifferentialSteppers'
  must_run ./internal/serve/ 'TestServeScheduleExploration'
  # Served Kth's rank table: built through both executors on random,
  # tie-heavy, unequal, empty and short shards; windows of at most 16p²
  # keys; answers at and beside every row rank against the sort oracle;
  # the sends per query it saves; no build run when every shard is
  # shorter than the stride.
  must_run ./internal/serve/ 'TestRankTable|TestRankTableServedAnswers|TestRankTableCutsSends|TestShortShardsBuildNoTable'
  # Selection's two-sweep level: tree messages only, the miss path, tie-heavy
  # shards, the up-sweep stepper, and every sel/coll/bpq wire codec
  # round-trips. Exact multisequence selection and bulk DeleteMin ride the
  # same sweeps: tree messages plus one size sum, exact at the edges on
  # every executor, no allocation beyond the batch (nor in a flexible
  # DeleteMin). The sorted form's level rule holds its sweeps per query
  # under their bound.
  must_run ./internal/sel/ 'TestKthIsTreeSweepsOnly|TestKthSpeculationMiss|TestKthTieHeavyShards|TestWireCodecsRoundTrip|TestMSSelectIsTreeSweepsOnly|TestMSSelectEdgeCasesAgainstSortOracle|TestKthWindowOpsAgree|TestKthReleaseKeepsNoShardSlice|TestKthSortedSweepsPerQuery'
  # The collective catalog is what the code calls: every exported coll,
  # redist and qsel function, and every exported …Step constructor of sel,
  # dht, freq and mtopk, has a non-test caller outside its package, and
  # every coll …Step a stepper that composes it (not the experiments, the
  # benchmark or a comm.RunSteps argument). The straight-line collectives
  # and the dht layer on them reproduce their recorded results and meters.
  must_run ./internal/coll/ 'TestReduceConcatStep|TestWireCodecsRoundTrip|TestScalarCollectivesAreVectorForms|TestAllToAllReceivedPartsAreOwned|TestExportedCollectivesHaveCallers|TestRedistAndQselExportsHaveCallers|TestExportedSteppersHaveCallers|TestCollectivesGolden'
  must_run ./internal/bpq/ 'TestDeleteMinIsTreeSweepsOnly|TestDeleteMinEdgeCasesAgainstSortOracle|TestDeleteMinZeroAllocSteadyState|TestDeleteMinFlexibleZeroAllocSteadyState|TestWireCodecsRoundTrip|TestDeleteMinFlexibleSumsSizeOnce'
  # Flexible selection runs in lanes: each lane against the sort oracle,
  # one round's messages for all lanes, the known-n entry without its size
  # sum, the one-lane case pinned to its recorded result and meters; DTA
  # runs one lane selection per probe and skips the probes that cannot pass.
  must_run ./internal/sel/ 'TestAMSLanesAgainstSortOracle|TestAMSLanesShareEachRound|TestAMSSelectNSkipsTheSizeSum|TestAMSSelectOneLaneGolden'
  must_run ./internal/mtopk/ 'TestDTAOneSelectionPerProbe|TestDTAProbedFewerRounds|TestDTAPolylogCommunication|TestNewDataListsMatchStableSort|TestInEarlierPrefixMatchesScan'
  # Repeated runs are bit-identical (mtopk DTA/RDTA, bnb, redist, freq),
  # and mtopk's RDTA/TopK/DTAProbed, bnb, redist, agg's PAC/ECSum, every
  # freq algorithm, SmallestK, MSSelect, AMSSelectBatched, the bulk priority
  # queue and served Kth/DeleteMin reproduce their recorded results and
  # meters.
  must_run ./internal/mtopk/ 'TestMtopkRepeatedRunsBitIdentical|TestMtopkResultsGolden|TestDTAProbedGolden' -count=5
  must_run ./internal/agg/ 'TestAggResultsGolden' -count=5
  must_run ./internal/bnb/ 'TestBnbRepeatedRunsBitIdentical|TestBnbResultsGolden' -count=5
  must_run ./internal/redist/ 'TestBuildPlanRepeatedRunsBitIdentical|TestRedistResultsGolden' -count=5
  must_run ./internal/freq/ 'TestFreqRepeatedRunsBitIdentical' -count=5
  must_run ./internal/freq/ 'TestFreqResultsGolden' -count=5
  must_run ./internal/sel/ 'TestSmallestKGolden|TestMSSelectGolden|TestAMSSelectBatchedGolden' -count=5
  must_run ./internal/bpq/ 'TestBpqResultsGolden' -count=5
  must_run ./internal/serve/ 'TestServeMixedGolden|TestServeKthGolden' -count=5
  must_run ./internal/serve/ 'TestDeadlineExpiredAtSubmit|TestDeadlineExpiredWhileQueued' -count=50
  # Wire: 2-process differential (results and meters bit-identical), worker
  # death is a clean error with no goroutine leak, and a worker whose
  # leader is gone exits by itself even when its run cannot unwind.
  must_run ./internal/wire/ 'TestWireDifferential|TestWorkerCrashTeardown|TestClusterCloseIdempotent|TestWorkerExitsWhenLeaderDropsMidSpin'
  # Smokes.
  go test -run '^$' -bench 'Table1|Substrate_MailboxScale' -benchtime=1x -benchmem .
  go run ./cmd/topkbench -exp scaling -quick
  fuzz ./internal/wire/ FuzzEnvelope
  fuzz ./internal/qsel/ FuzzSelect
  fuzz ./internal/sel/ FuzzKthSorted
  fuzz ./internal/mailbox/ FuzzBox
  fuzz ./internal/dht/ FuzzSumRuns
}

race() {
  go test -race ./internal/comm/ ./internal/coll/ ./internal/commbuf/ ./internal/qsel/ ./internal/sel/ \
    ./internal/mailbox/ ./internal/dht/ ./internal/treap/ ./internal/bpq/ ./internal/serve/ \
    ./internal/mtopk/ ./internal/bnb/ ./internal/redist/
  go test -race -count=5 ./internal/agg/
  # The benchmark's own tests (its smoke runs every workload shrunken).
  go test -race -count=1 ./bench
  # Production against the reference executor, and the explored schedules.
  must_run ./internal/experiments/ 'TestBackendDifferential|TestBackendDifferentialShardedScheduler|TestBackendDifferentialRepeatedRuns|TestBackendDifferentialContinuationBodies|TestFuzzDifferentialSteppers|TestScheduleExploration|TestExplorationIsSensitive' -race
  # Scheduler: the whole mailbox package, then blocking runs (coroutines)
  # at w < p with a Close after every machine, then continuation
  # suspend/resume.
  go test -race -count=20 -timeout 120s ./internal/mailbox/
  must_run ./internal/comm/ 'TestBlockingRunWLessThanPStress|TestMailboxSchedulerWLessThanP' -race -count=20 -timeout 120s
  must_run ./internal/comm/ 'TestRunAsyncContinuationStress|TestRunAsyncCascade|TestRunAsyncBlockingRecvInStepperFailsRun|TestAbortedRunResetsCollectiveTags|TestBlockingRunAbortWhileSuspended' -race -count=5 -timeout 120s
  # Context interleaving: tagged demux, multi-key suspension, nested
  # bodies, serving mux.
  must_run ./internal/comm/ 'TestCtxIsolatedStreams|TestMultiWaiterAnyOfResume|TestPostDoorbell|TestBodyStepNestedAlternates|TestBodyStepAbortStopsNestedBodies' -race -count=3
  must_run ./internal/mailbox/ 'TestKeyedFIFOAcrossContexts|TestKeyedConcurrentSenders|TestArmKeysFireOnce|TestShardedReadyQueueResumes|TestShardedReadyStealing' -race -count=3
  # Steppers against their blocking twins, w < p; the blocking-only
  # families against their recorded results and meters.
  must_run ./internal/coll/ 'TestVectorSteppersContinuationStress|TestScalarCollectivesAreVectorForms|TestAllToAllReceivedPartsAreOwned' -race -count=3
  must_run ./internal/sel/ 'TestKthStepMatchesBlockingAcrossBackends|TestKthStepRepeatedRunsReusePooledState' -race -count=3
  # Three processes: a race binary keeps what every earlier test in it
  # touched, so one process would peak near the sum of these tests' peaks.
  must_run ./internal/sel/ 'TestKthSortedDifferential' -race -count=5
  must_run ./internal/sel/ 'TestKthIsTreeSweepsOnly|TestMSSelectIsTreeSweepsOnly|TestMSSelectEdgeCasesAgainstSortOracle' -race -count=5
  must_run ./internal/sel/ 'TestKthWindowOpsAgree|TestKthReleaseKeepsNoShardSlice|TestKthSortedNeverWritesTheShard|TestKthSortedSkipsTheSizeAllReduce|TestKthSpeculationMiss|TestKthTieHeavyShards|TestKthSortedSweepsPerQuery' -race -count=5
  must_run ./internal/coll/ 'TestReduceConcatStep' -race -count=5
  must_run ./internal/sel/ 'TestAMSLanesAgainstSortOracle|TestAMSLanesShareEachRound|TestAMSSelectNSkipsTheSizeSum|TestAMSSelectOneLaneGolden' -race -count=3
  must_run ./internal/bpq/ 'TestDeleteMinMatchesAcrossExecutors|TestDeleteMinThresholdContract|TestInterleavedInsertDelete|TestDeleteMinIsTreeSweepsOnly|TestDeleteMinEdgeCasesAgainstSortOracle|TestDeleteMinFlexibleSumsSizeOnce|TestBpqResultsGolden' -race -count=3
  must_run ./internal/mtopk/ 'TestDTAOneSelectionPerProbe|TestDTAProbedFewerRounds' -race -count=3
  must_run ./internal/bnb/ 'TestBnbResultsGolden' -race -count=3
  must_run ./internal/redist/ 'TestRedistResultsGolden' -race -count=3
  must_run ./internal/freq/ 'TestFreqSteppersMatchBlocking' -race -count=3
  must_run ./internal/mtopk/ 'TestMtopkResultsGolden|TestDTAProbedGolden' -race -count=3
  must_run ./internal/agg/ 'TestAggResultsGolden|TestLocalAggregateMatchesSumTable' -race -count=3
  must_run ./internal/freq/ 'TestFreqResultsGolden' -race -count=3
  must_run ./internal/mtopk/ 'TestNewDataListsMatchStableSort|TestInEarlierPrefixMatchesScan' -race -count=3
  must_run ./internal/qsel/ 'TestSortPairsStableAgainstSortOracle' -race -count=3
  # Serving: concurrent equals sequential for all three kinds, on both
  # executors; Kth/DeleteMin against their recorded results and meters;
  # the resident index and its rank table; the stress.
  must_run ./internal/serve/ 'TestServeResidentIndex|TestServeConcurrentMatchesSequential|TestServeMixedKindsConcurrentMatchesSequential|TestServeFreqConcurrentMatchesSequential|TestServeScheduleExploration|TestServeConcurrentStress|TestServeMixedGolden|TestRankTable|TestRankTableServedAnswers|TestRankTableCutsSends|TestShortShardsBuildNoTable' -race -count=5
  # External abort against finishRun's re-arm (the wire reader goroutine).
  must_run ./internal/wire/ 'TestWorkerCrashTeardown|TestClusterCloseIdempotent' -race -count=20
}

long() {
  must_run ./internal/experiments/ 'TestScheduleExploration|TestScheduleExplorationECSum' -tags long -timeout 60m
  must_run ./internal/experiments/ 'TestMidRunGoroutineResidency16384' -tags long -timeout 30m
}

# bench: the benchmark's own command, all six workloads in full size at
# three seconds each. It passes only if the command exits 0 and prints six
# "correct":true result lines: the shrunken tier-1 smoke cannot show that
# a full-size workload fails to run.
bench() {
  local out n
  out=$(go run ./bench -seconds 3 2>&1) || { tail -n 60 <<<"$out"; echo "bench: the benchmark exited non-zero"; return 1; }
  n=$(grep -o '"correct":true' <<<"$out" | wc -l)
  if [ "$n" -ne 6 ]; then
    tail -n 60 <<<"$out"
    echo "bench: $n of 6 workloads printed a correct result"
    return 1
  fi
  echo "bench: 6 of 6 workloads correct"
}

case "${1:-}" in
tier1 | race | long | bench) "$1" ;;
*)
  echo "usage: scripts/guard.sh tier1|race|long|bench" >&2
  exit 2
  ;;
esac
