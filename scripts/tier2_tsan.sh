#!/usr/bin/env bash
# Tier-2 race gate: build the concurrency-bearing subsystems under
# ThreadSanitizer and run the tests that exercise threads — the thread pool,
# the shared plan cache / planner, the serving runtime's queueing machinery,
# the obs telemetry layer (metric registry + trace ring hammered from many
# threads, and the end-to-end runtime timeline that records from dispatcher
# and worker threads), and the launch engine, whose host workers run blocks
# in parallel with per-worker lane storage. The ASan+UBSan sibling is
# scripts/tier2_asan.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tsan
cmake --build --preset tsan -j "$(nproc)" --target regla_tests

# halt_on_error keeps the first report close to its cause; second_deadlock_stack
# makes lock-order reports actionable.
export TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1 ${TSAN_OPTIONS:-}"

# PlanCache*/Planner*/Solver* plan through a planner whose cache and its
# planner=<k> counters every worker stream of a runtime writes (Planner*
# includes the planner-level LRU eviction test, Solver* the
# model's-first-candidate dispatch check through private and shared
# planners); RuntimeQueue.* drive the runtime through the solve_override
# hook (pure queueing and the dispatcher's deadline scan, no kernels);
# RuntimeSolve.* add real kernel launches; Engine* and KernelGolden* run
# every kernel family on the host worker pool; RuntimeFault*/EngineFault*
# exercise the fault-injection and resilience paths (retry/backoff,
# deadline failure, shedding, CPU fallback — all of which cross threads);
# Fleet* include two default runtimes counting side by side into their own
# fleet=<k>, runtime=<k> and planner=<k> instruments; Obs* cover the metric
# registry, the trace ring, and the cross-layer timeline (ObsRuntimeTrace
# exercises the trace buffer from the dispatcher and every worker thread at
# once); Arena*/RuntimeArena*/RuntimeRagged* hammer the payload arena's
# lease/release free lists and the staged assembly path from concurrent
# submitters.
#
# `timeout` backstops the raw gtest run: ctest's per-test TIMEOUT does not
# apply here, and a sanitizer-found deadlock must fail, not hang the gate.
timeout 1800 ./build-tsan/tests/regla_tests \
  --gtest_filter='ThreadPool*:PlanCache*:Planner*:Solver*:RuntimeQueue*:RuntimeSolve*:RuntimeFault*:Engine*:KernelGolden*:Obs*:OpsRegistry*:OpsZoo*:Fleet*:ReplayVerify*:Arena*:RuntimeArena*:RuntimeRagged*'

echo "tier2 tsan: clean"
