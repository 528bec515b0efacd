#include "planner/plan_cache.h"

#include <algorithm>

namespace regla::planner {

PlanCache::PlanCache(std::size_t capacity, std::string_view labels)
    : capacity_(std::max<std::size_t>(1, capacity)),
      hits_(obs::counter("planner.cache_hits", labels)),
      misses_(obs::counter("planner.cache_misses", labels)),
      inserts_(obs::counter("planner.cache_inserts", labels)),
      evictions_(obs::counter("planner.cache_evictions", labels)) {}

std::size_t PlanCache::KeyHash::operator()(const Key& k) const {
  std::uint64_t h = k.fingerprint;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(k.desc.op));
  mix(static_cast<std::uint64_t>(k.desc.dtype));
  mix(static_cast<std::uint64_t>(k.desc.m));
  mix(static_cast<std::uint64_t>(k.desc.n));
  mix(static_cast<std::uint64_t>(k.desc.batch));
  return static_cast<std::size_t>(h);
}

std::size_t PlanCache::WarmKeyHash::operator()(const WarmKey& k) const {
  std::uint64_t h = k.fingerprint;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  };
  mix(static_cast<std::uint64_t>(k.op));
  mix(static_cast<std::uint64_t>(k.dtype));
  mix(static_cast<std::uint64_t>(k.m));
  mix(static_cast<std::uint64_t>(k.n));
  return static_cast<std::size_t>(h);
}

PlanCache::WarmKey PlanCache::warm_key(const Key& key) {
  return WarmKey{key.desc.op, key.desc.m, key.desc.n, key.desc.dtype,
                 key.fingerprint};
}

bool PlanCache::warm(const ProblemDesc& desc, std::uint64_t fingerprint) const {
  const WarmKey k{desc.op, desc.m, desc.n, desc.dtype, fingerprint};
  std::lock_guard<std::mutex> lock(mutex_);
  return warm_.find(k) != warm_.end();
}

std::optional<Plan> PlanCache::find(const Key& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    misses_.add();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  hits_.add();
  Plan p = it->second->plan;
  p.from_cache = true;
  return p;
}

void PlanCache::insert(const Key& key, const Plan& plan) {
  std::lock_guard<std::mutex> lock(mutex_);
  inserts_.add();
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = plan;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, plan});
  index_[key] = lru_.begin();
  ++warm_[warm_key(key)];
  while (index_.size() > capacity_) {
    const Key& victim = lru_.back().key;
    const auto wit = warm_.find(warm_key(victim));
    if (wit != warm_.end() && --wit->second <= 0) warm_.erase(wit);
    index_.erase(victim);
    lru_.pop_back();
    evictions_.add();
  }
}

std::size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

PlanCacheStats PlanCache::stats() const {
  return PlanCacheStats{hits_.value(), misses_.value(), inserts_.value(),
                        evictions_.value()};
}

}  // namespace regla::planner
