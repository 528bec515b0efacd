// Typed, labeled, process-wide metric instruments — the one store for the
// system's counts. Each usage pattern has its own instrument: monotonic event
// counts, last-value gauges, and distributions:
//
//   obs::counter("engine.addr_truncations").add();
//   obs::gauge("fleet.inflight", "fleet=0,device=dev0").set(inflight);
//   obs::histogram("runtime.latency_us", "runtime=0").record(us);
//
// Instruments are created on first lookup and live for the process lifetime
// (references returned by counter()/gauge()/histogram() never dangle; the
// registry never removes or zeroes an instrument, so counts only go up and a
// before/after delta is always valid). Lookup takes a registry mutex;
// updates on an obtained reference are lock-free atomics. An optional label
// string distinguishes instruments sharing a name. The scoping rule: every
// instance that owns counts (Runtime, Fleet, Arena, Planner/PlanCache) has
// one label, its construction ordinal (runtime=<k>, fleet=<k>, planner=<k>),
// and one store: it resolves its instruments once, when it is built, and its
// stats() reads them back. Process-wide engine and ops events stay
// unlabelled.
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string_view>

namespace regla::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-value instrument (device state, queue depth, bytes held).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta,
                                     std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0};
};

/// Fixed-bucket log-linear distribution: every octave (2^o, 2^(o+1)] up to
/// 2^32 is cut into kSubBuckets equal-width buckets, bucket 0 is everything
/// <= 1, and values past 2^32 land in the last bucket. percentile() reports
/// a bucket's midpoint, within 1/(2 kSubBuckets) = 3.1% of any sample in
/// it. Unit-agnostic — callers pick one (microseconds, problems) and say so
/// in the instrument name.
class Histogram {
 public:
  static constexpr int kSubBuckets = 16;
  static constexpr int kOctaves = 32;
  static constexpr int kBuckets = 1 + kOctaves * kSubBuckets;

  void record(double v);
  std::uint64_t count() const;
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  /// Midpoint of the bucket holding quantile q (q clamped to [0, 1]; bucket
  /// 0 reports its bound, 1); 0 when the histogram is empty.
  double percentile(double q) const;

  /// Bucket i covers (bucket_upper(i - 1), bucket_upper(i)].
  static int bucket_of(double v);
  static double bucket_upper(int i);

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<double> sum_{0};
};

/// Registry lookup: get-or-create the named instrument. The same
/// (name, labels) pair always returns the same object; a name used with one
/// type must not be reused with another (REGLA_CHECKs).
Counter& counter(std::string_view name, std::string_view labels = {});
Gauge& gauge(std::string_view name, std::string_view labels = {});
Histogram& histogram(std::string_view name, std::string_view labels = {});

/// Lookup without creating: the gauge's value, or 0 if absent.
double gauge_value(std::string_view name, std::string_view labels = {});

/// Lookup without creating: the counter's value, or 0 if absent. Lets tests
/// and benches reconcile event counts without registering instruments the
/// code under test never touched.
std::uint64_t counter_value(std::string_view name,
                            std::string_view labels = {});

/// Human-readable exposition: one line per instrument, histograms with
/// count/mean/p50/p99. Sorted by key.
void dump(std::ostream& os);

/// Machine-readable exposition: `type,key,field,value` CSV rows.
void dump_csv(std::ostream& os);

}  // namespace regla::obs
