// Seeded inputs and the cpu reference check every workload applies to its
// results, outside the timed region.
#pragma once

#include <cstdint>

#include "common/matrix.h"
#include "cpu/thread_pool.h"
#include "ops/registry.h"
#include "planner/plan.h"

namespace perfbench {

/// One request's or call's payload: the matrices, plus the right-hand sides
/// when the op takes them (empty otherwise).
struct Payload {
  regla::BatchF a;
  regla::BatchF b;
};

/// Deterministic in (op, count, n, seed): the fill class each op's traits
/// name (uniform, diagonally dominant, SPD), so no problem breaks down.
Payload make_inputs(regla::planner::Op op, int count, int n,
                    std::uint64_t seed);

/// Fill `out` (already shaped like the inputs, possibly a borrowed arena
/// lease) with make_inputs(op, count, n, seed).
void fill_inputs(regla::planner::Op op, int n, std::uint64_t seed,
                 Payload& out);

/// The registry call over `p`'s batches (b only when the op takes one).
regla::ops::Call call_of(Payload& p);

/// ops::run_cpu on a copy of `pristine`: the reference result.
Payload reference(regla::planner::Op op, const Payload& pristine,
                  regla::cpu::ThreadPool& pool);

/// Largest per-problem relative error of `got` against `ref`, over the part
/// of the result the op defines (R up to row signs for qr, L for cholesky,
/// the factors for lu, the solutions for the solves).
double max_rel_error(regla::planner::Op op, const Payload& got,
                     const Payload& ref);

/// The bound max_rel_error must stay under. Single-precision kernels with
/// fast-math division agree with the cpu reference to ~1e-6; a wrong answer
/// is off by O(1).
inline constexpr double kTolerance = 1e-3;

/// A pseudo-random 64-bit value from (seed, stream, index) — splitmix64, so
/// neighbouring indices give unrelated input seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index);

}  // namespace perfbench
