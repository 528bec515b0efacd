// The three workloads. Each builds its system under test from regla's
// public APIs, times set-up and a measured region of `seconds`, checks every
// result against the cpu reference outside the timed region, and returns
// raw samples; run.py turns them into the reported metrics.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  int nproc = 1;
};

struct RunResult {
  std::int64_t attempted = 0;  ///< calls or requests issued
  std::int64_t failed = 0;     ///< typed errors + hangs + oracle mismatches
  std::int64_t mismatched = 0; ///< of failed: results the oracle rejected
  std::int64_t hung = 0;       ///< of failed: no result within the hang bound
  double worst_rel_error = 0;  ///< largest oracle error seen

  std::vector<double> setup_s;  ///< one per set-up repetition
  double timed_s = 0;           ///< host wall seconds of the measured region
  std::int64_t problems = 0;    ///< problems completed in it
  std::vector<double> latency_ms;
  /// Parallel to latency_ms: 1 where the sample fell in a traced segment.
  std::vector<int> latency_traced;

  /// Completions per throughput window: throughput_pps is the median over
  /// windows of this many consecutive completions (series done_s and
  /// done_problems), which keeps a passing stall on a shared host from
  /// deciding the figure.
  int window = 1;
  /// Named raw series (per-request runtime timings, generator lateness,
  /// completion times).
  std::map<std::string, std::vector<double>> series;
  /// Per-layer values computed here (counters, ratios, exact counts).
  std::map<std::string, double> layers;
};

RunResult run_direct_wave(const RunConfig& cfg, Spans& spans);
RunResult run_serve_tiny(const RunConfig& cfg, Spans& spans);
RunResult run_serve_burst(const RunConfig& cfg, Spans& spans);

/// Traced runs alternate traced and untraced segments of this length, so
/// the same run can measure what its own tracing costs.
inline constexpr double kTraceSegmentSeconds = 0.5;

}  // namespace perfbench
