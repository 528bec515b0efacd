// The model-guided launch planner (the paper's predictive model, §II/§IV-V,
// promoted from validation artifact to the actual dispatcher).
//
// For a problem signature the planner enumerates every candidate mapping the
// kernels admit — approach x threads-per-block x layout, under the device
// config's own fast_math — scores each with the analytical models in
// src/model/, and returns the cheapest as the Plan. Results are memoized in
// an LRU cache keyed by (signature, device fingerprint), so repeated solves
// of the same shape skip enumeration and scoring entirely and dispatch in
// O(1).
//
// Scoring = the paper's models plus one planner-level extension: a register
// SPILL term. The paper's Eq. 1 and Table VI models deliberately ignore
// spilling, which is exactly where Figs. 4 and 9 show them diverging from
// the hardware — a dispatcher cannot afford to be fooled there, so the
// planner charges spilled tile words for their L1 traffic (issue-cost for
// the latency-hidden per-thread kernels, exposed-latency for the
// sync-bounded per-block kernels). With that term the model itself
// reproduces the paper's dispatch policy: per-thread for tiny problems, the
// 64 -> 256 thread switch at n = 80 (Fig. 9), tiled beyond one block.
//
// The model's pick is the plan: there is no empirical search. How far the
// model sits from the simulator is measured outside the planner, against
// the launches the plans produce, never by trial runs inside it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "planner/plan.h"
#include "planner/plan_cache.h"
#include "simt/device_config.h"

namespace regla::planner {

/// Cumulative planner health counters: a read of the plan cache's obs
/// counters, planner.cache_* under the planner's own label
/// (Planner::metric_labels()).
struct PlannerStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t plans_built = 0;  ///< candidate enumerations (cache inserts)
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0 ? cache_hits / total : 0;
  }
};

/// LRU entries a planner's cache holds before it evicts.
inline constexpr std::size_t kPlanCacheCapacity = 512;

class Planner {
 public:
  Planner();

  /// The plan for this signature on this device: cached if seen before,
  /// otherwise candidates(cfg, desc).front(), inserted.
  /// Thread-safe (the cache is a PlanCache; two threads missing the same
  /// signature at once both build it and the later insert wins — plans for a
  /// signature are deterministic, so the duplicate work is harmless).
  /// REGLA_CHECKs if no kernel can run the problem at all.
  Plan plan(const regla::simt::DeviceConfig& cfg, const ProblemDesc& desc);

  /// All admissible candidates, scored, cheapest first (no cache involved).
  std::vector<Plan> candidates(const regla::simt::DeviceConfig& cfg,
                               const ProblemDesc& desc) const;

  PlannerStats stats() const;

  /// The label ("planner=<k>", k = process-wide construction ordinal) on this
  /// planner's obs counters: planner.cache_hits, .cache_misses,
  /// .cache_inserts and .cache_evictions.
  const std::string& metric_labels() const { return labels_; }

  /// The underlying memo (thread-safe; shared by every caller of plan()).
  PlanCache& cache() { return cache_; }
  const PlanCache& cache() const { return cache_; }

  /// Hash of every DeviceConfig field the plans depend on; part of the cache
  /// key, so a plan made for one device configuration never matches a device
  /// with another (e.g. one that differs only in fast_math).
  static std::uint64_t config_fingerprint(const regla::simt::DeviceConfig& cfg);

 private:
  std::string labels_;
  PlanCache cache_;
};

}  // namespace regla::planner
