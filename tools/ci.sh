#!/bin/sh
# The repository's one-command gate: everything a change must survive
# before it merges, in the order that fails fastest.
#
#   1. tier-1: configure + build + full ctest suite (unit and example
#      labels) in the standard build tree,
#   1b. portable colgen pins: test_core built again in a second tree
#      (<build-dir>-portable) with -DMRWSN_FAST_KERNELS=OFF (-O2, the
#      compiler's baseline ISA, no -march=native), running the
#      ColumnGeneration* and TieredPricing* suites. Their pinned round and
#      column counts must match the tier-1 tree's: every build passes
#      -ffp-contract=off, so the counts depend on the problem, not on
#      the ISA or on FMA contraction,
#   2. fuzz: the differential fuzz suites (ctest label "fuzz") at a
#      deeper seed count than the smoke run the suite includes — the
#      revised simplex against the test-only dense-tableau oracle
#      (tests/support), and topology mutate-vs-rebuild,
#   3. sanitized: a separate ASan+UBSan build tree running the full
#      suite plus the fuzz harness again (skippable for quick local
#      iterations — see below). This includes the tiered-pricing parity
#      tests, so the heuristic pricing oracles and the candidate-stash
#      bookkeeping get sanitizer coverage on every gate run. The script
#      ends with a ThreadSanitizer stage (third build tree) that runs the
#      sharded parallel MAC determinism suite and the admission
#      concurrency suite under TSan; MRWSN_SKIP_TSAN=1 skips it.
#   4. replay bench: the admission load harness replays the 1k-op traces
#      in both mixes — the default 5%-commit families and the write-heavy
#      30% BM_AdmissionReplayWrite* ones — with 1e-6 parity verification
#      built in, and bench_compare.py checks the report still covers the
#      p50/p99/QPS/scenario-load metrics against the committed baseline.
#   5. churn + commit + DES bench: BM_ChurnReadmit{Incremental,Rebuild}
#      on the 100-node churn script plus BM_CommitLatency/{128,1024,8192},
#      the per-pair kernels BM_ConflictMatrixBuild/{8,12} and
#      BM_CliqueUpperBound, and the discrete-event kernels
#      BM_CsmaParallel/{1,2,4,8} and BM_EventQueueChurn, plus the LP
#      engine's own rows — BM_SimplexRandom, its oracle twin
#      BM_SimplexReference, and BM_MasterResolveRevised — with --require
#      coverage guards for every family.
#
# Stages 4 and 5 archive their median reports into BENCH_history/ (one
# compact JSON per run, named by UTC stamp + git revision) so the perf
# trajectory across commits stays diffable after baselines are rewritten.
#
# Full benchmark regressions are gated separately: regenerate with
#   cmake --build build --target bench_json
# and diff against the committed baseline with
#   tools/bench_compare.py old.json BENCH_results.json
#
# Usage: ci.sh [build-dir]
#   build-dir  defaults to build/ (created if missing)
#
# Environment:
#   MRWSN_CI_SKIP_SANITIZED=1  skip stage 3 (e.g. resource-starved hosts)
#   MRWSN_CI_SKIP_BENCH=1      skip stage 4
#   MRWSN_FUZZ_SEEDS=N         seeds per fuzz family in stage 2
#                              (default 2000; the sanitized stage keeps
#                              run_sanitized.sh's own default)
set -eu
REPO=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD=${1:-"$REPO/build"}
JOBS=$(nproc 2>/dev/null || echo 4)

echo "== ci stage 1: tier-1 build + tests =="
cmake -B "$BUILD" -S "$REPO"
cmake --build "$BUILD" -j "$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j "$JOBS"

echo "== ci stage 1b: colgen pins under portable flags (MRWSN_FAST_KERNELS=OFF) =="
PORTABLE="${BUILD%/}-portable"
cmake -B "$PORTABLE" -S "$REPO" -DMRWSN_FAST_KERNELS=OFF
cmake --build "$PORTABLE" -j "$JOBS" --target test_core
"$PORTABLE/tests/test_core" --gtest_filter='ColumnGeneration*:TieredPricing*'

echo "== ci stage 2: differential fuzz (revised simplex vs test oracle) =="
"$REPO/tools/run_fuzz.sh" "$BUILD" "${MRWSN_FUZZ_SEEDS:-2000}"

if [ "${MRWSN_CI_SKIP_SANITIZED:-0}" = "1" ]; then
  echo "== ci stage 3: sanitized run skipped (MRWSN_CI_SKIP_SANITIZED) =="
else
  echo "== ci stage 3: ASan+UBSan build + tests (incl. tiered-pricing parity) =="
  "$REPO/tools/run_sanitized.sh"
fi

if [ "${MRWSN_CI_SKIP_BENCH:-0}" = "1" ]; then
  echo "== ci stage 4: replay bench skipped (MRWSN_CI_SKIP_BENCH) =="
else
  echo "== ci stage 4: admission replay bench + coverage guard =="
  cmake --build "$BUILD" -j "$JOBS" --target admission_load
  REPLAY_JSON="$BUILD/bench_replay_ci.json"
  # The 1k traces plus the scenario load pair: every replayed evaluate is
  # parity-checked against a sequential re-execution inside the harness,
  # so a passing run is a correctness statement, not just a timing.
  # Both replay mixes: the default 5%-commit families and the write-heavy
  # 30% ones (BM_AdmissionReplayWrite*), which stress the structure-sharing
  # commit path rather than the read side.
  "$REPO/tools/bench_to_json.sh" "$REPLAY_JSON" \
    'BM_AdmissionReplay.*/ops:1000/|BM_Scenario' \
    "$BUILD/bench/admission_load"
  "$REPO/tools/bench_compare.py" "$REPO/BENCH_results.json" "$REPLAY_JSON" \
    --require BM_AdmissionReplayP50 --require BM_AdmissionReplayP99 \
    --require BM_AdmissionReplayQPS --require BM_AdmissionReplayWriteP50 \
    --require BM_AdmissionReplayWriteP99 \
    --require BM_AdmissionReplayWriteQPS --require BM_ScenarioParseText \
    --require BM_ScenarioLoadBlob
  "$REPO/tools/bench_archive.py" "$REPLAY_JSON" \
    --history "$REPO/BENCH_history" --label replay

  echo "== ci stage 5: churn + commit-latency + DES bench + coverage guard =="
  # Incremental topology repair vs cold rebuild on the 100-node churn
  # script, plus the structure-sharing commit-latency family at 128/1k/8k
  # background columns, plus the conflict-matrix build (one interferes()
  # per couple pair on a fresh physical model: each link pair is asked once
  # per rate combination, the case the pair-limit memo exists for), the
  # Eq. 9 clique upper bound, the sharded CSMA simulator on the 500-node
  # scaled Fig. 4 topology at 1/2/4/8 workers, the physical-model and
  # CSMA-simulator constructors on that topology, the event-queue churn
  # kernel, and the simplex rows (random dense LPs against the oracle
  # tableau, and the warm colgen-master replay); the --require guards fail
  # the gate if any of them silently drops out of the suite.
  cmake --build "$BUILD" -j "$JOBS" --target perf_micro
  CHURN_JSON="$BUILD/bench_churn_ci.json"
  "$REPO/tools/bench_to_json.sh" "$CHURN_JSON" \
    'BM_ChurnReadmit|BM_CommitLatency|BM_ConflictMatrixBuild|BM_CliqueUpperBound|BM_CsmaParallel|BM_PhysicalModelBuild|BM_CsmaBuild|BM_EventQueueChurn$|BM_SimplexRandom|BM_SimplexReference|BM_MasterResolveRevised' \
    "$BUILD/bench/perf_micro"
  "$REPO/tools/bench_compare.py" "$REPO/BENCH_results.json" "$CHURN_JSON" \
    --require BM_ChurnReadmitIncremental --require BM_ChurnReadmitRebuild \
    --require BM_CommitLatency --require BM_ConflictMatrixBuild \
    --require BM_CliqueUpperBound --require BM_CsmaParallel \
    --require BM_PhysicalModelBuild --require BM_CsmaBuild \
    --require BM_EventQueueChurn --require BM_SimplexRandom \
    --require BM_SimplexReference --require BM_MasterResolveRevised
  "$REPO/tools/bench_archive.py" "$CHURN_JSON" \
    --history "$REPO/BENCH_history" --label churn
fi

echo "ci gate passed"
