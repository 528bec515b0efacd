#!/usr/bin/env bash
# Tier-1 gate: configure with the whole tree (libraries, tests, benches,
# examples) held to -Wall -Wextra -Werror, build everything, run the full
# test suite.
#
# Before merging concurrency- or memory-touching work, also run the tier-2
# sanitizer gates:
#   scripts/tier2_tsan.sh   ThreadSanitizer over the threaded suites
#   scripts/tier2_asan.sh   ASan+UBSan over the full suite
set -euo pipefail
cd "$(dirname "$0")/.."

cmake --preset tier1
cmake --build --preset tier1 -j "$(nproc)"
ctest --preset tier1
