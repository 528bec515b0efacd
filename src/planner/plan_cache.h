// The planner's memo: a thread-safe LRU map from (problem signature, device
// fingerprint) to the Plan the model chose.
//
// Extracted from Planner so the serving runtime's worker streams can share
// one planner (and therefore one cache) without caring about the planner's
// other mutable state: every operation here takes the cache's own mutex, so
// any number of threads may find/insert concurrently. Lookups move the entry
// to the LRU front; inserts past capacity evict from the back.
//
// Its counts live only in planner.cache_* obs counters under its owner's
// label, resolved once at construction; stats() reads them back.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"
#include "planner/plan.h"

namespace regla::planner {

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0 ? hits / total : 0;
  }
};

class PlanCache {
 public:
  /// The full cache key: what is being solved plus the device configuration
  /// it was planned for (devices with different configs never share a plan).
  struct Key {
    ProblemDesc desc;
    std::uint64_t fingerprint = 0;
    bool operator==(const Key&) const = default;
  };

  /// `labels` names the owner's obs counters (a Planner passes its
  /// metric_labels()); caches sharing a label share their counts.
  PlanCache(std::size_t capacity, std::string_view labels);

  /// The cached plan (marked from_cache) or nullopt; counts a hit or miss
  /// and refreshes the entry's LRU position.
  std::optional<Plan> find(const Key& key);

  /// Insert or overwrite; evicts least-recently-used entries past capacity.
  void insert(const Key& key, const Plan& plan);

  /// Affinity probe for the fleet router: is at least one plan cached for
  /// this problem *shape* — (op, m, n, dtype), any batch size — on a device
  /// with this config fingerprint? A device that has planned a signature
  /// holds its compiled knowledge warm, so the router prefers it. Unlike
  /// find(), this neither refreshes LRU positions nor counts a hit or miss:
  /// routing probes must not perturb cache behavior.
  bool warm(const ProblemDesc& desc, std::uint64_t fingerprint) const;

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  PlanCacheStats stats() const;

 private:
  struct KeyHash {
    std::size_t operator()(const Key& k) const;
  };
  struct Entry {
    Key key;
    Plan plan;
  };
  /// The affinity index key: the cache key with the batch size erased.
  struct WarmKey {
    Op op{};
    int m = 0;
    int n = 0;
    Dtype dtype{};
    std::uint64_t fingerprint = 0;
    bool operator==(const WarmKey&) const = default;
  };
  struct WarmKeyHash {
    std::size_t operator()(const WarmKey& k) const;
  };
  static WarmKey warm_key(const Key& key);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  ///< front = most recently used
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  /// Reference-counted shape index over index_: how many cached plans cover
  /// each (op, m, n, dtype, fingerprint) — the warm() probe in O(1).
  std::unordered_map<WarmKey, int, WarmKeyHash> warm_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& inserts_;
  obs::Counter& evictions_;
};

}  // namespace regla::planner
